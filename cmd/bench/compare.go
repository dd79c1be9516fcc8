package main

// The -compare mode: the CI perf-regression gate over two -json
// reports. `bench -compare old.json new.json` matches experiments by
// table id and fails (exit 1) when the new report regresses wall-clock
// or wireBytes by more than the threshold; a missing experiment or a
// dropped wireBytes column is a schema mismatch (exit 2) — the
// baseline must be refreshed, not silently skipped.
//
// Wall-clock comparisons additionally require the absolute delta to
// exceed -noise-ms: CI runners are not the machine that generated the
// committed baseline, and sub-noise-floor timing deltas on small
// experiments are runner jitter, not regressions. wireBytes is
// deterministic, so it gets no noise floor — one extra byte over the
// threshold is a real protocol change.

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// parseCompareArgs interprets everything after `-compare OLD`: the NEW
// report path plus optional -threshold/-noise-ms in any position (the
// stdlib flag parser stops at the first positional, so `bench -compare
// old.json new.json -noise-ms 2000` leaves them here).
func parseCompareArgs(rest []string, threshold, noiseMs *float64) (string, error) {
	newPath := ""
	takeValue := func(i *int, name string) (string, error) {
		if eq := strings.IndexByte(rest[*i], '='); eq >= 0 {
			return rest[*i][eq+1:], nil
		}
		*i++
		if *i >= len(rest) {
			return "", fmt.Errorf("flag -%s needs a value", name)
		}
		return rest[*i], nil
	}
	for i := 0; i < len(rest); i++ {
		a := rest[i]
		name := strings.TrimLeft(a, "-")
		switch {
		case strings.HasPrefix(a, "-") && strings.HasPrefix(name, "threshold"):
			v, err := takeValue(&i, "threshold")
			if err != nil {
				return "", err
			}
			if _, err := fmt.Sscanf(v, "%g", threshold); err != nil {
				return "", fmt.Errorf("bad -threshold %q", v)
			}
		case strings.HasPrefix(a, "-") && strings.HasPrefix(name, "noise-ms"):
			v, err := takeValue(&i, "noise-ms")
			if err != nil {
				return "", err
			}
			if _, err := fmt.Sscanf(v, "%g", noiseMs); err != nil {
				return "", fmt.Errorf("bad -noise-ms %q", v)
			}
		case strings.HasPrefix(a, "-"):
			return "", fmt.Errorf("unknown flag %s after -compare", a)
		case newPath != "":
			return "", fmt.Errorf("-compare takes exactly one NEW.json, got %q and %q", newPath, a)
		default:
			newPath = a
		}
	}
	if newPath == "" {
		return "", fmt.Errorf("-compare OLD.json needs the NEW.json argument")
	}
	return newPath, nil
}

// compareOutcome is the result of diffing two reports: one line per
// compared quantity, plus the subset that breached the gate.
type compareOutcome struct {
	lines       []string
	regressions []string
}

// loadReport reads and decodes a -json report.
func loadReport(path string) (jsonReport, error) {
	var r jsonReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

// wireBytesColumn sums the wireBytes column of a table, skipping the
// "-" cells of un-wired transports. The second result reports whether
// the table has a wireBytes column at all.
func wireBytesColumn(t *jsonExperiment) (int64, bool, error) {
	col := -1
	for i, h := range t.Table.Header {
		if h == "wireBytes" {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false, nil
	}
	var sum int64
	for _, row := range t.Table.Rows {
		if col >= len(row) || row[col] == "-" {
			continue
		}
		v, err := strconv.ParseInt(row[col], 10, 64)
		if err != nil {
			return 0, true, fmt.Errorf("%s: bad wireBytes cell %q", t.Table.ID, row[col])
		}
		sum += v
	}
	return sum, true, nil
}

// wireBytesRows extracts the per-row wireBytes values of a table,
// keyed by the row's label cells — every column before "millis" (e.g.
// "net/4", "mesh/4" in E13/E15) — skipping the "-" cells of un-wired
// transports. Returns nil when the table has no wireBytes column.
// Ordered labels come back too, so report lines keep the table's row
// order.
func wireBytesRows(t *jsonExperiment) (map[string]int64, []string) {
	col, labelEnd := -1, 1
	for i, h := range t.Table.Header {
		if h == "wireBytes" {
			col = i
		}
		if h == "millis" {
			labelEnd = i
		}
	}
	if col < 0 {
		return nil, nil
	}
	rows := make(map[string]int64)
	var order []string
	for _, row := range t.Table.Rows {
		if col >= len(row) || labelEnd > len(row) || row[col] == "-" {
			continue
		}
		v, err := strconv.ParseInt(row[col], 10, 64)
		if err != nil {
			continue // the summed gate already reports bad cells
		}
		label := strings.Join(row[:labelEnd], "/")
		if _, dup := rows[label]; !dup {
			order = append(order, label)
		}
		rows[label] = v
	}
	return rows, order
}

// pct formats new-vs-old as a signed percentage.
func pct(oldV, newV float64) string {
	if oldV == 0 {
		if newV == 0 {
			return "+0.0%"
		}
		return "+inf%"
	}
	return fmt.Sprintf("%+.1f%%", 100*(newV-oldV)/oldV)
}

// compareReports diffs newR against oldR. Every experiment in oldR
// must exist in newR (schema mismatch otherwise); experiments only in
// newR are reported but not gated, so adding an experiment does not
// force a synchronized baseline refresh.
func compareReports(oldR, newR jsonReport, threshold, noiseMs float64) (compareOutcome, error) {
	var out compareOutcome
	newByID := make(map[string]*jsonExperiment, len(newR.Experiments))
	for i := range newR.Experiments {
		newByID[newR.Experiments[i].Table.ID] = &newR.Experiments[i]
	}
	seen := make(map[string]bool, len(oldR.Experiments))
	for i := range oldR.Experiments {
		oldE := &oldR.Experiments[i]
		id := oldE.Table.ID
		seen[id] = true
		newE, ok := newByID[id]
		if !ok {
			return out, fmt.Errorf("schema mismatch: experiment %s in old report but missing from new", id)
		}
		line := fmt.Sprintf("%-4s wall %9.1fms -> %9.1fms (%s)", id, oldE.Millis, newE.Millis, pct(oldE.Millis, newE.Millis))
		if newE.Millis > oldE.Millis*(1+threshold) && newE.Millis-oldE.Millis > noiseMs {
			out.regressions = append(out.regressions, fmt.Sprintf(
				"%s wall-clock regressed %s (%.1fms -> %.1fms, threshold %.0f%%, noise floor %.0fms)",
				id, pct(oldE.Millis, newE.Millis), oldE.Millis, newE.Millis, 100*threshold, noiseMs))
		}
		oldWB, oldHas, err := wireBytesColumn(oldE)
		if err != nil {
			return out, err
		}
		newWB, newHas, err := wireBytesColumn(newE)
		if err != nil {
			return out, err
		}
		if oldHas && !newHas {
			return out, fmt.Errorf("schema mismatch: experiment %s lost its wireBytes column", id)
		}
		if oldHas {
			line += fmt.Sprintf("  wireBytes %d -> %d (%s)", oldWB, newWB, pct(float64(oldWB), float64(newWB)))
			if newWB > oldWB && (oldWB == 0 || float64(newWB) > float64(oldWB)*(1+threshold)) {
				out.regressions = append(out.regressions, fmt.Sprintf(
					"%s wireBytes regressed %s (%d -> %d, threshold %.0f%%)",
					id, pct(float64(oldWB), float64(newWB)), oldWB, newWB, 100*threshold))
			}
		}
		out.lines = append(out.lines, line)
		// Per-row deltas, reported but never gated (only the summed total
		// above can fail the gate): this is where one row's shift — a
		// transport's bytes moving while the others hold — stays visible
		// in CI logs instead of vanishing into the sum.
		oldRows, _ := wireBytesRows(oldE)
		newRows, newOrder := wireBytesRows(newE)
		for _, label := range newOrder {
			newV := newRows[label]
			if oldV, ok := oldRows[label]; ok {
				if oldV != newV {
					out.lines = append(out.lines, fmt.Sprintf(
						"     %s wireBytes[%s] %d -> %d (%s)", id, label, oldV, newV, pct(float64(oldV), float64(newV))))
				}
			} else {
				out.lines = append(out.lines, fmt.Sprintf(
					"     %s wireBytes[%s] %d (new row, no baseline)", id, label, newV))
			}
		}
	}
	for i := range newR.Experiments {
		if id := newR.Experiments[i].Table.ID; !seen[id] {
			out.lines = append(out.lines, fmt.Sprintf("%-4s new experiment, no baseline — not gated", id))
		}
	}
	return out, nil
}
