package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graphio"
)

// The multi-process smoke test re-executes this test binary as the
// distworker CLI (TestMain dispatches to main when the child marker is
// set), so real OS processes — one coordinator, three workers — talk
// over real loopback sockets with no build step.

const childEnv = "DISTWORKER_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func child(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	return cmd
}

// childCapture is child without the inherited stderr, for tests that
// assert on the CLI's error output.
func childCapture(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	return cmd
}

// multiProcessSparsify is the multi-process ground truth: a
// coordinator and shards−1 worker processes (each started with the
// extra workerArgs), every one loading only its partition file, bring
// up the full mesh (each worker binds a peer listener, announces it,
// and dials its lower-numbered peers) and write output edge-identical
// to the single-process in-memory run. It returns the coordinator's
// log.
func multiProcessSparsify(t *testing.T, shards int, workerArgs ...string) string {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	const (
		seed = 11
		eps  = "0.75"
		rho  = "4"
	)
	nShards := strconv.Itoa(shards)
	dir := t.TempDir()
	g := gen.Gnp(600, 0.03, 9)
	graphPath := filepath.Join(dir, "graph.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Pre-split so that the worker processes exercise ReadPartition —
	// they never see the whole graph.
	partsDir := filepath.Join(dir, "parts")
	splitCmd := child(t, "-in", graphPath, "-shards", nShards, "-split", partsDir, "-split-only")
	if err := splitCmd.Run(); err != nil {
		t.Fatalf("split: %v", err)
	}

	outPath := filepath.Join(dir, "sparse.txt")
	addrPath := filepath.Join(dir, "addr")
	coord := childCapture(t, "-listen", "127.0.0.1:0", "-shards", nShards, "-parts", partsDir,
		"-eps", eps, "-rho", rho, "-seed", "11", "-out", outPath, "-addr-file", addrPath,
		"-timeout", "30s")
	var coordLog strings.Builder
	coord.Stderr = &coordLog
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	addr := waitForFile(t, addrPath, 15*time.Second)
	workers := make([]*exec.Cmd, 0, shards-1)
	for s := 1; s < shards; s++ {
		args := append([]string{"-join", addr, "-shards", nShards, "-shard", strconv.Itoa(s),
			"-parts", partsDir, "-timeout", "30s"}, workerArgs...)
		w := child(t, args...)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d: %v\ncoordinator log:\n%s", i+1, err, coordLog.String())
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\nlog:\n%s", err, coordLog.String())
	}

	of, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	got, err := graphio.Read(of)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(seed)
	ref, err := dist.Run(dist.NewEngine(dist.Mem(), g), dist.SparsifyJob(0.75, 4, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != ref.Output.N || got.M() != ref.Output.M() {
		t.Fatalf("multi-process %v vs in-memory %v", got, ref.Output)
	}
	for i := range ref.Output.Edges {
		if got.Edges[i] != ref.Output.Edges[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, got.Edges[i], ref.Output.Edges[i])
		}
	}
	return coordLog.String()
}

// TestMultiProcessSparsify: a coordinator and three workers on the
// default peer listeners, so every worker holds two direct links.
func TestMultiProcessSparsify(t *testing.T) {
	multiProcessSparsify(t, 4)
}

// TestMultiProcessMeshSparsify: every worker binds its peer listener at
// an explicit -peer-listen address, as a multi-machine fleet must, and
// the wire total the coordinator sums across the four processes equals
// the in-process Mesh(4) spec's byte for byte — separate OS processes
// reading partition files put exactly the in-process frames on their
// hub connections and direct links.
func TestMultiProcessMeshSparsify(t *testing.T) {
	coordLog := multiProcessSparsify(t, 4, "-peer-listen", "127.0.0.1:0")
	ref, err := dist.Run(dist.NewEngine(dist.Mesh(4), gen.Gnp(600, 0.03, 9)),
		dist.SparsifyJob(0.75, 4, core.DefaultConfig(11)))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("wire: %d bytes across 4 processes", ref.WireBytes); !strings.Contains(coordLog, want) {
		t.Fatalf("coordinator log lacks %q:\n%s", want, coordLog)
	}
}

// killRecoverDrill is the fault-tolerance ground truth at the OS
// level: worker process doomed SIGKILLs itself mid-run (the honest
// stand-in for kill -9, preemption, or OOM) and takes its direct links
// down with it, the survivors unwind to the coordinator's rollback,
// the coordinator respawns the dead shard from its partition file via
// -max-respawns (the replacement announces a fresh peer listener as it
// rejoins), and the rebuilt mesh replays to output bit-identical to
// the single-process in-memory run.
func killRecoverDrill(t *testing.T, shards, doomed int) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	const seed = 11
	nShards := strconv.Itoa(shards)
	dir := t.TempDir()
	g := gen.Gnp(600, 0.03, 9)
	graphPath := filepath.Join(dir, "graph.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	partsDir := filepath.Join(dir, "parts")
	if err := child(t, "-in", graphPath, "-shards", nShards, "-split", partsDir, "-split-only").Run(); err != nil {
		t.Fatalf("split: %v", err)
	}

	outPath := filepath.Join(dir, "sparse.txt")
	addrPath := filepath.Join(dir, "addr")
	coord := childCapture(t, "-listen", "127.0.0.1:0", "-shards", nShards, "-parts", partsDir,
		"-eps", "0.75", "-rho", "4", "-seed", "11", "-out", outPath, "-addr-file", addrPath,
		"-timeout", "30s", "-max-respawns", "2")
	var coordLog strings.Builder
	coord.Stderr = &coordLog
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	addr := waitForFile(t, addrPath, 15*time.Second)
	var healthy []*exec.Cmd
	var doomedCmd *exec.Cmd
	for s := 1; s < shards; s++ {
		args := []string{"-join", addr, "-shards", nShards, "-shard", strconv.Itoa(s),
			"-parts", partsDir, "-timeout", "30s"}
		if s == doomed {
			args = append(args, "-crash-after-frames", "60")
		}
		w := child(t, args...)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		if s == doomed {
			doomedCmd = w
		} else {
			healthy = append(healthy, w)
		}
	}
	if err := doomedCmd.Wait(); err == nil {
		t.Fatal("doomed worker exited cleanly; fault injection never fired")
	}
	for _, w := range healthy {
		if err := w.Wait(); err != nil {
			t.Fatalf("surviving worker: %v\ncoordinator log:\n%s", err, coordLog.String())
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\nlog:\n%s", err, coordLog.String())
	}
	if want := fmt.Sprintf("respawning shard %d", doomed); !strings.Contains(coordLog.String(), want) {
		t.Fatalf("coordinator never reported the respawn:\n%s", coordLog.String())
	}

	of, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	got, err := graphio.Read(of)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dist.Run(dist.NewEngine(dist.Mem(), g), dist.SparsifyJob(0.75, 4, core.DefaultConfig(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != ref.Output.N || got.M() != ref.Output.M() {
		t.Fatalf("recovered run %v vs in-memory %v", got, ref.Output)
	}
	for i := range ref.Output.Edges {
		if got.Edges[i] != ref.Output.Edges[i] {
			t.Fatalf("recovered edge %d differs: %+v vs %+v", i, got.Edges[i], ref.Output.Edges[i])
		}
	}
}

// TestMultiProcessKillRecover: at three shards the last worker dies;
// its replacement redials shard 1's listener.
func TestMultiProcessKillRecover(t *testing.T) {
	killRecoverDrill(t, 3, 2)
}

// TestMultiProcessMeshKillRecover: at four shards shard 1 dies — the
// worker whose peer listener both others dialed — so two survivors
// lose a direct link each and must redial the fresh listener its
// replacement announces.
func TestMultiProcessMeshKillRecover(t *testing.T) {
	killRecoverDrill(t, 4, 1)
}

// TestAddressFlagValidation: a typo'd address flag fails before any
// socket work, with the flag's name and the expected shape in the
// message — not a raw dial failure mid-bring-up.
func TestAddressFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"listen-no-port", []string{"-listen", "127.0.0.1", "-shards", "2", "-in", "g.txt"},
			[]string{"-listen", "host:port"}},
		{"join-bad-port", []string{"-join", "127.0.0.1:notaport", "-shards", "2", "-shard", "1", "-in", "g.txt"},
			[]string{"-join", "not a valid port"}},
		{"join-no-host", []string{"-join", ":9000", "-shards", "2", "-shard", "1", "-in", "g.txt"},
			[]string{"-join", "host"}},
		{"peer-listen-no-host", []string{"-join", "127.0.0.1:9000", "-shards", "3", "-shard", "1",
			"-peer-listen", ":0", "-in", "g.txt"},
			[]string{"-peer-listen", "host"}},
		{"addr-file-missing-dir", []string{"-listen", "127.0.0.1:0", "-shards", "2", "-in", "g.txt",
			"-addr-file", "/no/such/dir/addr"},
			[]string{"-addr-file", "does not exist"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := childCapture(t, tc.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("bad address accepted: %v", tc.args)
			}
			for _, w := range tc.want {
				if !strings.Contains(string(out), w) {
					t.Fatalf("error does not mention %q:\n%s", w, out)
				}
			}
		})
	}
}

func waitForFile(t *testing.T, path string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(path)
		if err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b))
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s did not appear within %v", path, timeout)
	return ""
}

// TestUnknownJobName: an unregistered -job fails fast and tells the
// operator what IS registered.
func TestUnknownJobName(t *testing.T) {
	cmd := childCapture(t, "-job", "clustering", "-shards", "2", "-listen", "127.0.0.1:0", "-in", "nowhere.txt")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("unknown -job accepted")
	}
	s := string(out)
	if !strings.Contains(s, `"clustering"`) || !strings.Contains(s, "spanner") || !strings.Contains(s, "sparsify") {
		t.Fatalf("error does not list the registered jobs: %s", s)
	}
}

// TestShardCountMismatchIsClear: pointing a coordinator at a partition
// directory split for a different shard count must produce a clear
// error (not a panic, not a hang).
func TestShardCountMismatchIsClear(t *testing.T) {
	dir := t.TempDir()
	g := gen.Gnp(120, 0.1, 5)
	graphPath := filepath.Join(dir, "graph.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	partsDir := filepath.Join(dir, "parts")
	if err := child(t, "-in", graphPath, "-shards", "4", "-split", partsDir, "-split-only").Run(); err != nil {
		t.Fatalf("split: %v", err)
	}
	cmd := childCapture(t, "-listen", "127.0.0.1:0", "-shards", "3", "-parts", partsDir, "-timeout", "5s")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("mismatched -shards accepted")
	}
	s := string(out)
	if !strings.Contains(s, "-shards") || strings.Contains(s, "panic") {
		t.Fatalf("mismatch not reported clearly: %s", s)
	}
	// A worker asked for a shard id outside the split must fail clearly
	// too (this used to panic inside the partition carve).
	cmd = childCapture(t, "-join", "127.0.0.1:1", "-shards", "200", "-shard", "150", "-in", graphPath, "-timeout", "2s")
	out, err = cmd.CombinedOutput()
	if err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if s := string(out); strings.Contains(s, "panic") {
		t.Fatalf("out-of-range shard panicked instead of erroring: %s", s)
	}
}

// TestAddrFileAtomicity: the -addr-file appears via rename, so no
// reader can ever observe a partially written address. The test pins
// the mechanism: no temp-file residue is left next to the final file,
// and the file content is a complete dialable address.
func TestAddrFileAtomicity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dir := t.TempDir()
	g := gen.Gnp(120, 0.1, 5)
	graphPath := filepath.Join(dir, "graph.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	addrPath := filepath.Join(dir, "addr")
	coord := child(t, "-listen", "127.0.0.1:0", "-shards", "2", "-in", graphPath,
		"-eps", "0.75", "-rho", "4", "-seed", "7", "-out", filepath.Join(dir, "out.txt"),
		"-addr-file", addrPath, "-timeout", "30s")
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()
	addr := waitForFile(t, addrPath, 15*time.Second)
	if _, _, err := net.SplitHostPort(addr); err != nil {
		t.Fatalf("addr file holds %q, not a host:port: %v", addr, err)
	}
	if fi, err := os.Stat(addrPath); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Fatalf("addr file mode %v, want 0644 (world-readable like a plain WriteFile)", fi.Mode().Perm())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left beside the addr file", e.Name())
		}
	}
	w := child(t, "-join", addr, "-shards", "2", "-shard", "1", "-in", graphPath, "-timeout", "30s")
	if err := w.Run(); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
}

// coordinatorKillDrill is the coordinator-failover ground truth at the
// OS level: the COORDINATOR process SIGKILLs itself mid-run
// (-crash-after-frames with -listen), the survivors' direct links die
// with the hub, the lowest live shard is elected and adopts shard 0
// from the broadcast checkpoint, re-execs this binary to refill its
// vacated shard, rebuilds the mesh under the new coordinator, and
// writes the assembled output to ITS -out — bit-identical to the
// single-process in-memory run, with an identical ledger.
func coordinatorKillDrill(t *testing.T, shards int) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	const seed = 11
	nShards := strconv.Itoa(shards)
	dir := t.TempDir()
	g := gen.Gnp(600, 0.03, 9)
	graphPath := filepath.Join(dir, "graph.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	partsDir := filepath.Join(dir, "parts")
	if err := child(t, "-in", graphPath, "-shards", nShards, "-split", partsDir, "-split-only").Run(); err != nil {
		t.Fatalf("split: %v", err)
	}

	addrPath := filepath.Join(dir, "addr")
	coord := childCapture(t,
		"-listen", "127.0.0.1:0", "-shards", nShards, "-parts", partsDir,
		"-eps", "0.75", "-rho", "4", "-seed", "11", "-out", filepath.Join(dir, "coord.txt"),
		"-addr-file", addrPath, "-timeout", "30s", "-failover", "-checkpoint-every", "1",
		"-crash-after-frames", "60")
	var coordLog strings.Builder
	coord.Stderr = &coordLog
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	addr := waitForFile(t, addrPath, 15*time.Second)
	outPaths := make([]string, shards)
	logs := make([]*strings.Builder, shards)
	workers := make([]*exec.Cmd, shards)
	for s := 1; s < shards; s++ {
		outPaths[s] = filepath.Join(dir, "worker"+strconv.Itoa(s)+".txt")
		w := childCapture(t,
			"-join", addr, "-shards", nShards, "-shard", strconv.Itoa(s), "-parts", partsDir,
			"-timeout", "30s", "-failover", "-checkpoint-every", "1", "-max-respawns", "2",
			"-out", outPaths[s])
		logs[s] = &strings.Builder{}
		w.Stderr = logs[s]
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers[s] = w
	}
	// The coordinator SIGKILLs itself before its 60th frame: its exit
	// status must be the signal, not a clean run.
	if err := coord.Wait(); err == nil {
		t.Fatalf("doomed coordinator exited cleanly; fault injection never fired\nlog:\n%s", coordLog.String())
	}
	for s := 1; s < shards; s++ {
		if err := workers[s].Wait(); err != nil {
			t.Fatalf("worker %d: %v\nits log:\n%s\ncoordinator log:\n%s", s, err, logs[s], coordLog.String())
		}
	}
	// Shard 1 — the lowest live shard — must have been elected, respawned
	// its vacated slot, and written the output.
	if !strings.Contains(logs[1].String(), "respawning shard 1") {
		t.Fatalf("elected worker never respawned its vacated shard:\n%s", logs[1])
	}
	if !strings.Contains(logs[1].String(), "finished as elected coordinator") {
		t.Fatalf("worker 1 never reported the adoption:\n%s", logs[1])
	}
	of, err := os.Open(outPaths[1])
	if err != nil {
		t.Fatalf("elected worker wrote no output: %v", err)
	}
	defer of.Close()
	got, err := graphio.Read(of)
	if err != nil {
		t.Fatal(err)
	}
	// Reference at the same shard count, so the FULL ledger (CrossShard
	// split included) is comparable.
	ref, err := dist.Run(dist.NewEngine(dist.Mesh(shards), g), dist.SparsifyJob(0.75, 4, core.DefaultConfig(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != ref.Output.N || got.M() != ref.Output.M() {
		t.Fatalf("failed-over run %v vs failure-free %v", got, ref.Output)
	}
	for i := range ref.Output.Edges {
		if got.Edges[i] != ref.Output.Edges[i] {
			t.Fatalf("failed-over edge %d differs: %+v vs %+v", i, got.Edges[i], ref.Output.Edges[i])
		}
	}
	// The ledger the elected coordinator reports must equal the
	// failure-free one — the equivalence guarantee is failure-transparent.
	if want := "ledger: " + ref.Stats.String(); !strings.Contains(logs[1].String(), want) {
		t.Fatalf("elected worker's ledger diverges from the failure-free run (want %q):\n%s", want, logs[1])
	}
}

// TestMultiProcessCoordinatorKillRecover: the drill at three shards.
func TestMultiProcessCoordinatorKillRecover(t *testing.T) {
	coordinatorKillDrill(t, 3)
}

// TestMultiProcessMeshCoordinatorKillRecover: the drill at four
// shards, where shards 2 and 3 both outlive the hub, each unwinds its
// old 2↔3 link, and the two redial each other under the elected
// coordinator beside the respawned shard 1.
func TestMultiProcessMeshCoordinatorKillRecover(t *testing.T) {
	coordinatorKillDrill(t, 4)
}

// TestMultiProcessElasticResize: -ckpt-out on a 3-shard fleet, then
// -resume-ckpt on a 2-shard fleet — the resized, resumed run writes
// output bit-identical to the in-memory reference (replay is
// partition-independent; only the Stats CrossShard split may differ).
func TestMultiProcessElasticResize(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	const seed = 11
	dir := t.TempDir()
	g := gen.Gnp(600, 0.03, 9)
	graphPath := filepath.Join(dir, "graph.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ckptPath := filepath.Join(dir, "run.ckpt")
	runFleet := func(shards int, outName string, extra ...string) *os.File {
		t.Helper()
		addrPath := filepath.Join(dir, "addr"+strconv.Itoa(shards))
		outPath := filepath.Join(dir, outName)
		args := append([]string{"-listen", "127.0.0.1:0", "-shards", strconv.Itoa(shards),
			"-in", graphPath, "-eps", "0.75", "-rho", "4", "-seed", "11",
			"-out", outPath, "-addr-file", addrPath, "-timeout", "30s", "-checkpoint-every", "1"}, extra...)
		coord := child(t, args...)
		if err := coord.Start(); err != nil {
			t.Fatal(err)
		}
		defer coord.Process.Kill()
		addr := waitForFile(t, addrPath, 15*time.Second)
		for s := 1; s < shards; s++ {
			w := child(t, "-join", addr, "-shards", strconv.Itoa(shards), "-shard", strconv.Itoa(s),
				"-in", graphPath, "-timeout", "30s")
			if err := w.Start(); err != nil {
				t.Fatal(err)
			}
			defer func(s int, w *exec.Cmd) {
				if err := w.Wait(); err != nil {
					t.Fatalf("worker %d/%d: %v", s, shards, err)
				}
			}(s, w)
		}
		if err := coord.Wait(); err != nil {
			t.Fatalf("%d-shard coordinator: %v", shards, err)
		}
		of, err := os.Open(outPath)
		if err != nil {
			t.Fatal(err)
		}
		return of
	}

	ref, err := dist.Run(dist.NewEngine(dist.Mem(), g), dist.SparsifyJob(0.75, 4, core.DefaultConfig(seed)))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, of *os.File) {
		t.Helper()
		defer of.Close()
		got, err := graphio.Read(of)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != ref.Output.N || got.M() != ref.Output.M() {
			t.Fatalf("%s run %v vs in-memory %v", name, got, ref.Output)
		}
		for i := range ref.Output.Edges {
			if got.Edges[i] != ref.Output.Edges[i] {
				t.Fatalf("%s edge %d differs: %+v vs %+v", name, i, got.Edges[i], ref.Output.Edges[i])
			}
		}
	}

	check("3-shard checkpointing", runFleet(3, "sparse3.txt", "-ckpt-out", ckptPath))
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("-ckpt-out wrote nothing: %v", err)
	}
	check("2-shard resumed", runFleet(2, "sparse2.txt", "-resume-ckpt", ckptPath))
}

// TestMultiProcessSpannerJob: the -job flag really switches the
// algorithm — a coordinator and a worker process run the spanner job
// end to end and the written subgraph matches the in-memory spanner.
func TestMultiProcessSpannerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dir := t.TempDir()
	g := gen.Gnp(300, 0.05, 9)
	graphPath := filepath.Join(dir, "graph.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	outPath := filepath.Join(dir, "spanner.txt")
	addrPath := filepath.Join(dir, "addr")
	coord := child(t, "-listen", "127.0.0.1:0", "-shards", "2", "-in", graphPath,
		"-job", "spanner", "-seed", "21", "-out", outPath, "-addr-file", addrPath, "-timeout", "30s")
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()
	addr := waitForFile(t, addrPath, 15*time.Second)
	w := child(t, "-join", addr, "-shards", "2", "-shard", "1", "-in", graphPath,
		"-job", "spanner", "-timeout", "30s")
	if err := w.Run(); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	of, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	got, err := graphio.Read(of)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dist.Run(dist.NewEngine(dist.Mem(), g), dist.SpannerJob(0, 21))
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != ref.Output.G.M() {
		t.Fatalf("spanner size %d vs in-memory %d", got.M(), ref.Output.G.M())
	}
	for i := range ref.Output.G.Edges {
		if got.Edges[i] != ref.Output.G.Edges[i] {
			t.Fatalf("spanner edge %d differs", i)
		}
	}
}
