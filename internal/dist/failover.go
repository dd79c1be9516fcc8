package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
)

// Coordinator failover: surviving SIGKILL of shard 0.
//
// The worker-death story (recovery.go territory: heartbeats, rollback,
// checkpointed replay) leaves one single point of failure — the
// coordinator. With failover armed (NetConfig.Failover +
// WorkerConfig.Failover on every process) that hole closes:
//
//  1. At the join handshake every worker pre-binds a STANDBY hub
//     listener and announces its address in an appended
//     frameFailoverAddr. The listener stays silent — it costs one fd —
//     until an election needs it.
//  2. The coordinator assembles the standby address book and
//     broadcasts it at the top of every attempt, right after the
//     checkpoint. Every worker therefore holds, at all times, the same
//     book, the same raw job-header bytes, and the same decoded
//     checkpoint as every other worker.
//  3. When a worker loses its hub connection (EOF, reset, or timeout —
//     isConnLoss), the election is a pure function of the shared book:
//     the lowest-numbered shard with a standby address is the new
//     coordinator. No votes, no extra round trips, no split brain —
//     every survivor computes the same winner from the same bytes.
//  4. The elected worker adopts shard 0: its standby listener becomes
//     the hub listener, it re-broadcasts the stashed job header
//     VERBATIM plus the checkpoint, asks the host to respawn its now
//     vacated shard (WorkerConfig.Respawn), and runs the normal
//     coordinator recovery loop. The other survivors dial the book
//     address and rejoin as their old shards with fresh standby
//     listeners.
//
// Replay from the broadcast checkpoint is deterministic (every round
// is a pure function of seed, partition, and round number), so the
// output and the Stats ledger are bit-identical to a failure-free run.
//
// Deliberate scope limits, both surfaced as descriptive errors rather
// than hangs: a coordinator that dies before the first book broadcast
// leaves the workers with no book (nothing to elect from — the fleet
// was never fully formed), and a second coordinator death after the
// fleet has already failed over once is survivable only if the new
// book reached the survivors; a cascade faster than one attempt is
// not retried.

// isConnLoss reports whether err looks like the peer vanished —
// connection loss, reset, timeout, or EOF mid-frame — as opposed to a
// protocol violation, checksum mismatch, or local logic error. Only
// connection loss triggers a failover election: a protocol violation
// on a live link means a bug, and electing a new coordinator would
// just replay it.
func isConnLoss(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// electedShard returns the failover winner: the lowest-numbered shard
// with a standby address in this process's copy of the book, or -1
// when no book was ever broadcast (coordinator died before the fleet
// formed). The book is identical on every survivor, so every survivor
// elects the same shard without communicating.
func (t *NetTransport) electedShard() int {
	for s := 1; s < len(t.failAddrs); s++ {
		if t.failAddrs[s] != "" {
			return s
		}
	}
	return -1
}

// adoptCoordinator builds the shard-0 transport of an elected worker:
// a fresh coordinator NetTransport whose hub listener is the old
// transport's pre-bound standby listener, carrying over the stashed
// job header and checkpoint so the new coordinator re-broadcasts
// exactly what the dead one last did. The old worker transport is
// closed (standby excepted — it changes hands first).
func adoptCoordinator(old *NetTransport) (*NetTransport, error) {
	if old.standby == nil {
		return nil, fmt.Errorf("dist: elected shard %d has no standby listener to adopt", old.self)
	}
	t, err := newNetTransport(old.part.n, 0, old.part.p, old.timeout)
	if err != nil {
		return nil, err
	}
	t.ln, old.standby = old.standby, nil
	t.failover = old.failover
	t.lastHeader = old.lastHeader
	t.lastCkpt = old.lastCkpt
	old.Close()
	return t, nil
}
