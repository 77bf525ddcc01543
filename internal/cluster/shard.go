package cluster

import (
	"encoding/binary"

	"repro/internal/serve"
	"repro/internal/serve/rescache"
)

// Sharding: every sweep cell has a content address derived with the same
// rescache SHA-256 machinery that keys the workers' result caches, and
// the coordinator routes a cell to the live worker that wins
// rendezvous (highest-random-weight) hashing on that address. Two
// properties follow:
//
//   - Affinity: the same cell always prefers the same worker while
//     membership is stable, so repeated and overlapping sweeps hit that
//     worker's result cache instead of re-simulating elsewhere.
//   - Minimal reshuffle: when a worker dies, only its cells move;
//     rendezvous hashing leaves every other cell's preference intact
//     (a mod-N ring would reshuffle almost everything).
//
// Work-stealing then corrects any imbalance the hash leaves behind, so
// the shard key is a cache-locality preference, never a correctness
// constraint — any worker computes the bit-identical result.

// shardKeyVersion is the domain-separation label folded into every shard
// key. Bumping it reshuffles every cell's placement across the cluster,
// which is why TestShardKeyGolden pins the key bytes: a silent change
// here must fail loudly, not quietly invalidate every worker's cache
// affinity.
const shardKeyVersion = "mtcoord-shard-v1"

// CellShardKey derives the routing content address of one sweep cell.
// It folds in everything that identifies the cell at the request level —
// workload params, app, placement algorithm, machine size, cache mode
// and engine — mirroring the inputs of the workers' own result-cache
// keys (rescache.KeyOf needs the resolved placement, which only the
// worker derives; the request-level identity is a strict function of
// these fields, so equal shard keys imply equal result-cache keys). The
// fields are serve.RequestFields, the same encoding as the workers'
// request-level key, under this package's own label.
func CellShardKey(params serve.Params, app, algorithm string, procs int, infinite bool, engine string) rescache.Key {
	return rescache.SumStrings(shardKeyVersion, serve.RequestFields(params, app, algorithm, procs, infinite, engine)...)
}

// rendezvousScore ranks one (cell, worker) pair. The highest score among
// live workers wins the cell.
func rendezvousScore(key rescache.Key, workerID string) uint64 {
	sum := rescache.SumStrings("mtcoord-rendezvous-v1", key.String(), workerID)
	return binary.BigEndian.Uint64(sum[:8])
}

// pickWorker returns the rendezvous winner for key among workers (any
// order; ties break toward the lexicographically smaller ID so the
// choice is deterministic). Empty input returns "".
func pickWorker(key rescache.Key, workers []string) string {
	best, bestScore := "", uint64(0)
	for _, w := range workers {
		s := rendezvousScore(key, w)
		if best == "" || s > bestScore || (s == bestScore && w < best) {
			best, bestScore = w, s
		}
	}
	return best
}
