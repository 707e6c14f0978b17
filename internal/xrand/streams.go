package xrand

// This file is the table of stream indices: the second argument of every
// NewStream call outside tests. One root seed fans out into streams by
// index, so two uses of one index under one seed draw the same numbers.
// An index is chosen here and nowhere else; streams_test.go holds the
// table free of collisions.
//
// Fixed indices. The first five feed fingerprinted output — generated
// clusters, the calibration trace the simulator twin replays, reproduce's
// CSVs — and keep their historical values. The live daemon's two have no
// fingerprint to keep and sit above the per-worker range.
const (
	// StreamScenario draws a generated cluster (scenario.Generate).
	StreamScenario uint64 = 0x5ce0
	// StreamCalibTrace draws the recorded arrival trace both halves of a
	// calibration run replay (calib.TraceSpec.Generate).
	StreamCalibTrace uint64 = 0xCA11B
	// StreamFig1 + node (two nodes) draws fig. 1's per-node task sizes.
	StreamFig1 uint64 = 1
	// StreamFig2 draws fig. 2's transfer-delay samples.
	StreamFig2 uint64 = 77
	// StreamFig4 + len(policy name) draws fig. 4's one traced realisation
	// per policy.
	StreamFig4 uint64 = 0xF16
	// StreamDispatcher draws the live dispatcher's routing decisions.
	StreamDispatcher uint64 = 1<<40 + 0xD15
	// StreamTaskGen draws the live daemon's task sizes.
	StreamTaskGen uint64 = 1<<40 + 0xFEED
)

// Per-entity ranges.
//
// A live worker owns three streams, WorkerStream(id, role): a range of its
// own, [1<<32, 1<<32 + 3·2³¹), that no fixed index may enter.
//
// A Monte-Carlo study gives replication k stream k of its seed (mc.Run):
// [0, reps). Those values are every Monte-Carlo fingerprint in the tree, so
// the range cannot move, and neither can the five fixed indices inside it.
// A study of more than k replications under seed S therefore redraws fixed
// stream k of S. Two callers reuse a seed that way, and both overlaps stay
// because closing either would move recorded output:
//
//   - lbsim -scenario -reps R with R > 23776 (0x5ce0): replication 23776
//     runs on the stream that generated the cluster;
//   - reproduce: fig. 3's first gain is studied under cfg.Seed itself, so
//     its replications 1, 2, 77 and (full mode) 3866 run on fig. 1's,
//     fig. 2's and fig. 4's streams.
//
// In both the two uses never meet in one estimate.

// WorkerRole names one of a live worker's three streams.
type WorkerRole uint64

const (
	// WorkerService draws the worker's service times.
	WorkerService WorkerRole = iota
	// WorkerChurn draws its up and down periods.
	WorkerChurn
	// WorkerBalance draws the delays of the transfers it sends.
	WorkerBalance
	workerRoles
)

// workerStreamBase lifts the per-worker range clear of every fixed index
// a live run's seed is also used with (StreamCalibTrace, in lbd).
const workerStreamBase uint64 = 1 << 32

// WorkerStream returns the stream index of live worker id's given role.
func WorkerStream(id int, role WorkerRole) uint64 {
	return workerStreamBase + uint64(workerRoles)*uint64(id) + uint64(role)
}
