package dist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
)

// The multi-process run scaffold of the Net and Worker specs (which
// the Mesh spec runs in one process): one SPMD schedule every process
// executes in lockstep over its own NetTransport. The coordinator
// broadcasts the job header (name + parameters, see job.go) so the
// workers adopt — and cross-check — the same job, then the checkpoint
// and the peer address book; every process runs the job's partition
// body over its own shard; the job's assemble gathers each shard's
// owned contribution at the coordinator (a boundary edge is
// contributed by the shard owning its U endpoint, so it is merged
// exactly once); and the run counters (wire bytes, peak view words)
// converge last.

// recoverNetError converts a *NetError panic (the transport's fatal
// failure mode) into a returned error; other panics propagate.
func recoverNetError(err *error) {
	if r := recover(); r != nil {
		if ne, ok := r.(*NetError); ok {
			*err = ne
			return
		}
		panic(r)
	}
}

// runNetJob executes one process's role of one ATTEMPT of a
// multi-process run — coordinator and worker run the same function;
// tr.Shard() decides who broadcasts, who adopts, and who receives the
// assembled output. ck is the coordinator's durable recovery
// checkpoint (nil on workers, which decode their own copy from the
// broadcast): its encoding is re-broadcast at the top of every attempt
// right after the job header, so a freshly respawned worker runs the
// exact same function as a survivor — decode, fast-forward, resume.
// The peer address book follows the checkpoint, so a worker holding a
// book (the failover election's input) also holds the header and
// checkpoint an elected coordinator must re-broadcast.
// On failure the retry loops in engine.go recover the fleet and call
// this again; beginAttempt discards any per-attempt protocol state so
// the replay starts bit-identically.
func runNetJob[R any](tr *NetTransport, part *graph.Partition, job Job[R], ck *ckptState) (res Result[R], err error) {
	defer recoverNetError(&err)
	if part.Shard != tr.Shard() || part.Shards != tr.Shards() {
		return Result[R]{}, fmt.Errorf("dist: partition %d/%d does not match transport %d/%d",
			part.Shard, part.Shards, tr.Shard(), tr.Shards())
	}
	tr.beginAttempt()
	impl := job.impl
	if tr.Shard() == 0 {
		if err := tr.WaitReady(); err != nil {
			return Result[R]{}, err
		}
		if ck == nil {
			ck = &ckptState{}
		}
		// An elected coordinator (failover) re-broadcasts the dead
		// coordinator's stashed header bytes VERBATIM — re-encoding from
		// the local impl could diverge if the local parameters differ —
		// and adopts its own impl from them like any worker would.
		header := tr.lastHeader
		if header == nil {
			header = encodeJobHeader(impl.name(), part.N, part.M, impl.params())
		} else {
			var aerr error
			if impl, aerr = adoptJobHeader(impl, header, part); aerr != nil {
				return Result[R]{}, aerr
			}
		}
		if _, err := tr.BroadcastBlob(header); err != nil {
			return Result[R]{}, err
		}
		if _, err := tr.BroadcastBlob(encodeCkpt(ck)); err != nil {
			return Result[R]{}, err
		}
	} else {
		blob, err := tr.BroadcastBlob(nil)
		if err != nil {
			return Result[R]{}, err
		}
		impl, err = adoptJobHeader(impl, blob, part)
		if err != nil {
			return Result[R]{}, err
		}
		tr.lastHeader = blob
		ckBlob, err := tr.BroadcastBlob(nil)
		if err != nil {
			return Result[R]{}, err
		}
		if ck, err = decodeCkpt(ckBlob); err != nil {
			return Result[R]{}, err
		}
		tr.lastCkpt = ck
	}
	// Establish the attempt's worker↔worker links before any round
	// runs: the coordinator broadcasts the peer address book and the
	// workers wire themselves up.
	if err := tr.setupDataPlane(); err != nil {
		return Result[R]{}, err
	}
	re := newRoundEngineOn(part.N, tr)
	po := impl.runPart(re, part, ck)
	out, err := impl.assemble(tr, part, po)
	if err != nil {
		return Result[R]{}, err
	}
	wireBytes, dataBytes, maxPeak, err := gatherRunCounters(tr, po.peak)
	if err != nil {
		return Result[R]{}, err
	}
	if tr.Shard() != 0 {
		return Result[R]{Stats: re.Stats(), PeakViewWords: po.peak,
			WireBytes: tr.WireBytes(), DataWireBytes: tr.DataWireBytes()}, nil
	}
	return Result[R]{Output: out, Stats: re.Stats(), PeakViewWords: maxPeak,
		WireBytes: wireBytes, DataWireBytes: dataBytes}, nil
}

// gatherRunCounters collects every process's honesty counters at the
// coordinator: the summed bytes put on the wire (total and the
// worker↔worker data subset the topology governs) and the MAXIMUM
// per-process peak view footprint — the measured per-worker
// O(m_incident) bound E13 reports. Workers contribute and get zeros.
func gatherRunCounters(tr *NetTransport, peakViewWords int) (wireBytes, dataBytes int64, maxPeakWords int, err error) {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(tr.WireBytes()))
	binary.LittleEndian.PutUint64(b[8:], uint64(peakViewWords))
	binary.LittleEndian.PutUint64(b[16:], uint64(tr.DataWireBytes()))
	blobs, err := tr.GatherBlobs(b[:])
	if err != nil {
		return 0, 0, 0, err
	}
	if tr.Shard() != 0 {
		return 0, 0, 0, nil
	}
	for s, blob := range blobs {
		if len(blob) != 24 {
			return 0, 0, 0, fmt.Errorf("dist: shard %d run counters are %d bytes", s, len(blob))
		}
		wireBytes += int64(binary.LittleEndian.Uint64(blob[0:]))
		if pw := int(binary.LittleEndian.Uint64(blob[8:])); pw > maxPeakWords {
			maxPeakWords = pw
		}
		dataBytes += int64(binary.LittleEndian.Uint64(blob[16:]))
	}
	return wireBytes, dataBytes, maxPeakWords, nil
}
