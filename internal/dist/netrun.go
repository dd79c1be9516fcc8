package dist

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
)

// The multi-process run scaffold shared by the Net, Worker, and
// Mesh specs: one SPMD schedule every process executes in lockstep
// over its own NetTransport. The coordinator broadcasts the job header
// (name + parameters, see job.go) so the workers adopt — and
// cross-check — the same job; every process runs the job's partition
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
	// Establish the attempt's worker↔worker links before any job state
	// flows: the coordinator broadcasts the address book and the
	// workers wire themselves up (a no-op at P ≤ 2).
	if err := tr.setupDataPlane(); err != nil {
		return Result[R]{}, err
	}
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
		if tr.failover {
			if tr.failAddrs == nil {
				tr.failAddrs = make([]string, tr.part.p)
			}
			if _, err := tr.BroadcastBlob(encodeAddrBook(tr.failAddrs)); err != nil {
				return Result[R]{}, err
			}
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
		if tr.failover {
			bookBlob, err := tr.BroadcastBlob(nil)
			if err != nil {
				return Result[R]{}, err
			}
			book, err := decodeAddrBook(bookBlob, tr.part.p)
			if err != nil {
				return Result[R]{}, err
			}
			tr.failAddrs = book
		}
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

// runLoopback is the scaffold of the Mesh spec: it binds a coordinator
// on loopback TCP, runs the worker body as shards 1..p−1 goroutines
// (each on its own joined NetTransport, with a loopback peer listener
// for the direct links) and the coordinator body as shard 0, converts
// *NetError panics to errors, unblocks workers still waiting on the
// hub if the coordinator fails, and collects the first error. Bodies
// return results through their closures.
func runLoopback(n, p int, timeout time.Duration,
	coordinator func(coord *NetTransport) error,
	worker func(tr *NetTransport, shard int) error) error {
	coord, err := listenNet("127.0.0.1:0", n, p, timeout, netOptions{})
	if err != nil {
		return err
	}
	defer coord.Close()
	errCh := make(chan error, p)
	var wg sync.WaitGroup
	for s := 1; s < p; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			err := func() (err error) {
				defer recoverNetError(&err)
				tr, err := joinNet(coord.Addr(), n, s, p, timeout, netOptions{})
				if err != nil {
					return err
				}
				defer tr.Close()
				return worker(tr, s)
			}()
			if err != nil {
				errCh <- fmt.Errorf("shard %d: %w", s, err)
			}
		}(s)
	}
	err = func() (err error) {
		defer recoverNetError(&err)
		return coordinator(coord)
	}()
	if err != nil {
		// Unblock workers still waiting on the hub before joining them.
		coord.Close()
	}
	wg.Wait()
	close(errCh)
	for werr := range errCh {
		if err == nil {
			err = werr
		}
	}
	return err
}
