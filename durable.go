package acq

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acq-search/acq/internal/core"
	"github.com/acq-search/acq/internal/dataio"
	"github.com/acq-search/acq/internal/graph"
	"github.com/acq-search/acq/internal/wal"
)

// This file implements per-collection durability: a write-ahead log that
// records every acknowledged mutation batch before the write returns, and
// checkpoints that fold the log into a memory-mappable snapshot.
//
// # On-disk layout (one directory per collection)
//
//	snapshot.acqm        the last checkpoint (mapped container, internal/dataio)
//	snapshot.acqm.tmp    an in-flight checkpoint write; ignored and removed on open
//	wal.log              the active write-ahead log (internal/wal)
//	wal.log.tmp          the next log, staged by an in-flight rotation
//	wal.prev-*           logs rotated out by a checkpoint that has not finished
//
// # Protocol
//
// Every mutation batch that changed the graph appends one WAL record — the
// effective ops plus the graph version before them — under the writer lock,
// before the mutator returns. A checkpoint then runs in four steps:
//
//  1. Off-lock: create the next log at wal.log.tmp (header written, file and
//     directory fsynced) and probe the wal.prev-* rotation name, so the
//     critical section never creates, fsyncs or closes a file.
//  2. Under the writer lock: fold the overlay (Compact ran just before),
//     capture the frozen CSR arrays and the flattened tree skeleton, then
//     rotate — rename wal.log aside to the version-stamped wal.prev-* and
//     rename wal.log.tmp into place as wal.log. The two renames are the only
//     filesystem work under the lock (metadata-only, no fsync); they must
//     sit here so the log split is atomic with the captured version.
//  3. Off-lock: close the rotated-out log, write the capture to
//     snapshot.acqm.tmp, fsync, atomically rename over snapshot.acqm, fsync
//     the directory (which also makes the step-2 renames durable).
//  4. Delete the rotated logs — every record they hold predates the new
//     snapshot's version.
//
// A crash at any point loses nothing acknowledged: before the snapshot
// rename, recovery replays snapshot + wal.prev-* + wal.log + wal.log.tmp
// (the tmp log is replayed last: if the crash hit the window where the
// step-2 renames were not yet durable, the records appended after rotation
// live in the file whose durable name is still wal.log.tmp — journaled
// metadata ordering guarantees the rotation rename is never less durable
// than the swap that follows it). After the snapshot rename, replay skips
// the rotated records by version (each record carries its pre-version, and
// batches align with the captured version boundary). OpenDurable finishes by
// checkpointing whenever it replayed records or found rotated logs, so a
// recovered directory always settles back to the clean one-snapshot/one-log
// state.

const (
	snapshotFile = "snapshot.acqm"
	walFile      = "wal.log"
	walTmpFile   = "wal.log.tmp"
	walPrevGlob  = "wal.prev-*"

	// DefaultCheckpointEvery is the number of effective mutations between
	// automatic checkpoints when DurableOptions.CheckpointEvery is zero.
	DefaultCheckpointEvery = 65536
)

// ErrNoDurableState reports an OpenDurable directory with no snapshot — a
// directory that never completed EnableDurability. The caller decides whether
// to fall back to its original data source.
var ErrNoDurableState = errors.New("acq: no durable state in directory")

// ErrAlreadyDurable reports EnableDurability on a graph that already has
// durability armed.
var ErrAlreadyDurable = errors.New("acq: durability already enabled")

// ErrNotDurable reports a durability operation (Checkpoint) on a graph that
// never had durability enabled.
var ErrNotDurable = errors.New("acq: durability not enabled")

// DurableOptions configures EnableDurability and OpenDurable.
type DurableOptions struct {
	// Dir is the collection's durability directory (created if missing).
	Dir string
	// SyncMode selects when WAL appends are fsynced: "always" (the default;
	// acknowledged batches survive machine crashes) or "never" (the OS
	// flushes; acknowledged batches survive process kills only).
	SyncMode string
	// CheckpointEvery is the number of effective mutations between automatic
	// background checkpoints: 0 means DefaultCheckpointEvery, negative
	// disables automatic checkpoints (Checkpoint can still be called).
	CheckpointEvery int
}

func (o DurableOptions) policy() (wal.SyncPolicy, error) {
	return wal.ParseSyncPolicy(o.SyncMode)
}

func (o DurableOptions) every() int {
	if o.CheckpointEvery == 0 {
		return DefaultCheckpointEvery
	}
	return o.CheckpointEvery
}

// crashPoint, when non-nil, is called at the named durability crash windows
// ("wal-append", "wal-rotated", "checkpoint-written", "checkpoint-renamed").
// The crash-
// injection tests point it at os.Exit to prove every acknowledged batch
// survives a kill inside any window. Always nil in production.
var crashPoint func(string)

func crash(name string) {
	if crashPoint != nil {
		crashPoint(name)
	}
}

// durState is the per-graph durability state. The log handle and rotation are
// guarded by G.mu (appends happen under the writer lock, between applying a
// batch and acknowledging it); checkpoints serialise on ckptMu and hold G.mu
// only to capture and rotate. The remaining fields are lock-free telemetry.
type durState struct {
	dir    string
	policy wal.SyncPolicy
	every  int

	log *wal.Log // guarded by G.mu; nil after an unrecoverable append error

	walBytes         atomic.Int64
	lastCkptVersion  atomic.Uint64
	everCheckpointed atomic.Bool
	checkpoints      atomic.Uint64
	lastCkptNanos    atomic.Int64
	recoveredBatches int // set once before the graph is shared
	lastErr          atomic.Pointer[string]

	ckptMu        sync.Mutex
	ckptArmed     atomic.Bool
	checkpointing atomic.Bool

	// mapped is the boot-time mapping of snapshot.acqm; the zero-copy serving
	// snapshot and the master's rows alias it, so it stays open for the
	// graph's lifetime (file-backed pages — address space, not resident
	// memory, once evicted).
	mapped *dataio.Mapped
}

func (d *durState) setErr(err error) {
	s := err.Error()
	d.lastErr.Store(&s)
}

// DurabilityStats reports the persistence state of a graph. Lock-free: safe
// to poll from metrics scrapers and health probes while writers append.
type DurabilityStats struct {
	// Durable reports whether a WAL is armed (EnableDurability/OpenDurable).
	Durable bool
	// Dir is the durability directory.
	Dir string
	// SyncMode is the WAL fsync policy ("always" or "never").
	SyncMode string
	// CheckpointEvery is the automatic checkpoint interval in effective
	// mutations (negative = manual checkpoints only).
	CheckpointEvery int
	// WALBytes is the current size of the active log, header included.
	WALBytes int64
	// LastCheckpointVersion is the graph version the newest on-disk snapshot
	// reflects (0 before the first checkpoint).
	LastCheckpointVersion uint64
	// RecoveredBatches counts the WAL records OpenDurable replayed on boot.
	RecoveredBatches int
	// Checkpoints counts completed checkpoints; LastCheckpoint is the
	// wall-clock duration of the most recent one.
	Checkpoints    uint64
	LastCheckpoint time.Duration
	// CheckpointInProgress reports an in-flight checkpoint.
	CheckpointInProgress bool
	// MappedColdStart reports whether this graph booted zero-copy from a
	// memory-mapped snapshot.
	MappedColdStart bool
	// Err is the most recent durability I/O error ("" when healthy). A
	// non-empty value with Durable still true means the WAL could not be
	// appended and logging stopped: mutations keep serving but are no longer
	// durable until a checkpoint succeeds and re-arms the log.
	Err string
}

// DurabilityStats returns the current durability telemetry; the zero value
// (Durable false) when durability was never enabled.
func (G *Graph) DurabilityStats() DurabilityStats {
	d := G.dur
	if d == nil {
		return DurabilityStats{}
	}
	s := DurabilityStats{
		Durable:              true,
		Dir:                  d.dir,
		SyncMode:             d.policy.String(),
		CheckpointEvery:      d.every,
		WALBytes:             d.walBytes.Load(),
		RecoveredBatches:     d.recoveredBatches,
		Checkpoints:          d.checkpoints.Load(),
		LastCheckpoint:       time.Duration(d.lastCkptNanos.Load()),
		CheckpointInProgress: d.checkpointing.Load(),
		MappedColdStart:      d.mapped != nil,
	}
	if d.everCheckpointed.Load() {
		s.LastCheckpointVersion = d.lastCkptVersion.Load()
	}
	if e := d.lastErr.Load(); e != nil {
		s.Err = *e
	}
	return s
}

// EnableDurability arms WAL logging and checkpointing on an in-memory graph:
// it writes the initial checkpoint of the current state to o.Dir and starts
// logging every subsequent acknowledged mutation batch. Call it after loading
// and indexing, before accepting writes — mutations applied before arming are
// only durable once the initial checkpoint (written here, synchronously)
// completes.
func (G *Graph) EnableDurability(o DurableOptions) error {
	policy, err := o.policy()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return err
	}
	os.Remove(filepath.Join(o.Dir, snapshotFile+".tmp")) // stale in-flight write
	d := &durState{dir: o.Dir, policy: policy, every: o.every()}
	G.mu.Lock()
	if G.dur != nil {
		G.mu.Unlock()
		return ErrAlreadyDurable
	}
	G.dur = d
	G.mu.Unlock()
	// The initial checkpoint creates snapshot.acqm and the fresh wal.log; on
	// failure disarm so the graph is explicitly non-durable rather than
	// silently half-armed.
	if err := G.Checkpoint(); err != nil {
		G.mu.Lock()
		G.dur = nil
		G.mu.Unlock()
		return err
	}
	return nil
}

// OpenDurable recovers a graph from a durability directory: it memory-maps
// the snapshot (zero-copy on unix little-endian hosts — the CSR payload
// serves straight from the page cache), replays every WAL record the
// snapshot doesn't already include, and re-arms logging. Returns
// ErrNoDurableState when the directory holds no snapshot.
//
// A clean boot (empty WAL, stored tree) publishes the mapped arrays directly
// and defers building the mutable master until the first mutation, so
// time-to-first-snapshot is the mmap plus one tree rehydration — no
// byte-by-byte load of the graph.
//
// When records were replayed (or a previous checkpoint was interrupted), the
// recovery finishes with a fresh checkpoint, so the directory always settles
// back to one snapshot and one (empty) log.
func OpenDurable(o DurableOptions) (*Graph, error) {
	policy, err := o.policy()
	if err != nil {
		return nil, err
	}
	snapPath := filepath.Join(o.Dir, snapshotFile)
	mapped, err := dataio.OpenMapped(snapPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoDurableState, o.Dir)
	}
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			mapped.Close()
		}
	}()
	os.Remove(snapPath + ".tmp")
	snapV := mapped.GraphVersion()
	walPath := filepath.Join(o.Dir, walFile)
	walTmpPath := filepath.Join(o.Dir, walTmpFile)
	prevs, err := sortedWalPrevs(o.Dir)
	if err != nil {
		return nil, err
	}
	d := &durState{dir: o.Dir, policy: policy, every: o.every(), mapped: mapped}

	// Pre-scan: does any intact record postdate the snapshot? Read-only and
	// O(records) — it decides whether boot can stay on the zero-copy fast
	// path without materialising the mutable master at all. wal.log.tmp is
	// scanned too: a crash inside a checkpoint's rotation window can leave
	// the newest acknowledged records under the staged name (see the
	// protocol comment).
	dirty := len(prevs) > 0
	for _, p := range []string{walPath, walTmpPath} {
		if dirty {
			break
		}
		if _, err := wal.Replay(p, func(rec wal.Record) error {
			if rec.PreVersion+uint64(len(rec.Ops)) > snapV {
				dirty = true
			}
			return nil
		}); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}

	if !dirty && mapped.HasTree() {
		// A staged rotation that never recorded anything past the snapshot
		// is inert; clear it so the directory is clean again.
		os.Remove(walTmpPath)
		// Clean recovery: the mapped arrays are exactly the current state, so
		// the first served snapshot reads straight from the mapping — the
		// zero-copy cold start. The mutable master (a second, copy-on-write
		// private mapping of the same file) is deferred: its build cost lands
		// on the first mutation instead of on boot.
		fz, err := mapped.Frozen(true)
		if err != nil {
			return nil, err
		}
		t2, err := mapped.Tree(fz)
		if err != nil {
			return nil, err
		}
		G := newLazyGraph(func() (*graph.Graph, *core.Tree) {
			g, t, err := mapped.Master()
			if err != nil {
				// Boot validated the same bytes; failing here means the file
				// was corrupted out from under the live mapping.
				panic(fmt.Sprintf("acq: materialising mapped master %s: %v", snapPath, err))
			}
			return g, t
		})
		G.version.Store(snapV)
		if log, _, err := wal.Open(walPath, policy, func(rec wal.Record) error {
			if rec.PreVersion+uint64(len(rec.Ops)) > snapV {
				return fmt.Errorf("acq: WAL record appeared in %s mid-recovery", o.Dir)
			}
			return nil
		}); err == nil {
			d.log = log
		} else if errors.Is(err, os.ErrNotExist) {
			// Crash between the snapshot rename and the log creation: recreate.
			if d.log, err = wal.Create(walPath, policy); err != nil {
				return nil, err
			}
		} else {
			return nil, err
		}
		d.walBytes.Store(d.log.Size())
		d.lastCkptVersion.Store(snapV)
		d.everCheckpointed.Store(true)
		G.dur = d
		G.publishMappedBoot(fz, t2)
		ok = true
		return G, nil
	}

	// Records to replay (or no stored tree): materialise the master eagerly
	// and walk the logs against it.
	master, mtree, err := mapped.Master()
	if err != nil {
		return nil, err
	}
	G := newGraph(master, mtree)
	G.version.Store(snapV)

	// Replay: rotated logs first (version order), then the active log. cur
	// tracks the version the master has reached; records at or below it are
	// already folded into the snapshot, anything else must continue exactly
	// where the master stands — a gap means acknowledged data is missing, and
	// refusing to serve beats silently serving a hole.
	applied := 0
	replay := func(rec wal.Record) error {
		if rec.PreVersion+uint64(len(rec.Ops)) <= snapV {
			return nil // fully contained in the snapshot
		}
		if err := G.applyRecord(rec); err != nil {
			return fmt.Errorf("acq: WAL replay in %s: %w", o.Dir, err)
		}
		applied++
		return nil
	}
	for _, p := range prevs {
		if _, err := wal.Replay(p, replay); err != nil {
			return nil, err
		}
	}
	if log, _, err := wal.Open(walPath, policy, replay); err == nil {
		d.log = log
	} else if errors.Is(err, os.ErrNotExist) {
		// Crash inside a rotation window: the live records, if any, are
		// still under the staged name, replayed just below. Recreate.
		if d.log, err = wal.Create(walPath, policy); err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}
	// The staged log replays last: its records (appended after a rotation
	// whose renames never became durable) are the newest.
	vWal := G.version.Load()
	appliedBeforeTmp := applied
	if _, err := wal.Replay(walTmpPath, replay); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if applied > appliedBeforeTmp {
		// The staged log holds live records, and the settle checkpoint below
		// stages its own rotation at the same name (truncating it). Move
		// both logs aside as wal.prev-* first — active then staged, the
		// order a second crash must replay them in — and start clean.
		if err := d.log.RenameInto(walPrevName(o.Dir, vWal)); err != nil {
			return nil, err
		}
		if err := os.Rename(walTmpPath, walPrevName(o.Dir, G.version.Load())); err != nil {
			return nil, err
		}
		d.log.Close()
		if d.log, err = wal.Create(walPath, policy); err != nil {
			return nil, err
		}
	}
	d.walBytes.Store(d.log.Size())
	d.lastCkptVersion.Store(snapV)
	d.everCheckpointed.Store(true)
	d.recoveredBatches = applied
	G.dur = d

	if applied > 0 || len(prevs) > 0 {
		// The directory needs to settle: fold the replayed state into a fresh
		// snapshot and clear the rotated logs.
		if err := G.Checkpoint(); err != nil {
			return nil, err
		}
	}
	// The staged log is fully accounted for: any record it held either
	// predated the snapshot or was replayed and folded by the settle
	// checkpoint above.
	os.Remove(walTmpPath)
	ok = true
	return G, nil
}

// publishMappedBoot installs the boot snapshot over the mapped frozen view
// and arms overlay tracking against it, so the first writes publish O(delta)
// overlays over the mapping instead of paying a full freeze.
func (G *Graph) publishMappedBoot(fz *graph.Frozen, t2 *core.Tree) {
	G.mu.Lock()
	defer G.mu.Unlock()
	s := newSnapshot(view{g: fz, tree: t2}, G.version.Load(), G.cacheSize, G.stats)
	G.snap.Store(s)
	G.snapRead.Store(false)
	G.lastSnapshotBytes.Store(int64(fz.SizeBytes()))
	G.fullPublishes.Add(1)
	if G.compactThreshold.Load() >= 0 {
		// nil publication tree: the first delta publication pays one full
		// clone (the mapped serving tree stays exclusively the boot
		// snapshot's).
		G.resetDeltaLocked(fz, nil)
	}
}

// sortedWalPrevs lists the rotated logs in rotation (version) order. The
// names embed a zero-padded capture version plus a uniquifier, so the
// lexicographic sort is the numeric sort.
func sortedWalPrevs(dir string) ([]string, error) {
	ps, err := filepath.Glob(filepath.Join(dir, walPrevGlob))
	if err != nil {
		return nil, err
	}
	sort.Strings(ps)
	return ps, nil
}

// walPrevName picks an unused rotation name stamped with capture version v.
// A checkpoint that failed after rotating leaves its wal.prev-* behind;
// never clobbering one is what keeps those records replayable.
func walPrevName(dir string, v uint64) string {
	for seq := 0; ; seq++ {
		p := filepath.Join(dir, fmt.Sprintf("wal.prev-%020d-%03d", v, seq))
		if _, err := os.Lstat(p); errors.Is(err, os.ErrNotExist) {
			return p
		}
	}
}

// durAppendLocked logs one acknowledged batch; callers hold G.mu and pass
// the graph version from before the batch applied. An append failure (disk
// full, device error) stops logging and surfaces through DurabilityStats.Err
// rather than failing the in-memory write — the next successful checkpoint
// re-arms the log with the full state folded in.
func (G *Graph) durAppendLocked(preVersion uint64, ops []wal.Op) {
	d := G.dur
	if d == nil || d.log == nil || len(ops) == 0 {
		return
	}
	//acqvet:allow lockio — the deliberate exception: a batch's record must be on the log (fsync per policy) before the write acks, and acks are ordered by G.mu
	if err := d.log.Append(wal.Record{PreVersion: preVersion, Ops: ops}); err != nil {
		d.setErr(err)
		//acqvet:allow lockio — teardown on a failing disk; logging is being disabled, there is no good time
		d.log.Close()
		d.log = nil
		return
	}
	d.walBytes.Store(d.log.Size())
	crash("wal-append")
	// post is the version after this batch (callers may append before or
	// after bumping G.version, so derive it from the record itself).
	post := preVersion + uint64(len(ops))
	if d.every > 0 && post-d.lastCkptVersion.Load() >= uint64(d.every) {
		G.maybeCheckpointLocked()
	}
}

// maybeCheckpointLocked schedules a background checkpoint; callers hold G.mu.
// Mirrors maybeCompactLocked: one armed flag, the fold itself runs off-lock
// on its own goroutine serialised by ckptMu.
func (G *Graph) maybeCheckpointLocked() {
	d := G.dur
	if d == nil || !d.ckptArmed.CompareAndSwap(false, true) {
		return
	}
	go func() {
		d.ckptMu.Lock()
		defer d.ckptMu.Unlock()
		d.ckptArmed.Store(false)
		G.checkpointOnce()
	}()
}

// Checkpoint synchronously folds the overlay, writes the current state as a
// fresh snapshot (temp file, fsync, atomic rename) and retires the WAL
// records the snapshot now contains. It waits for any in-flight background
// checkpoint first and is a no-op when nothing changed since the last one.
func (G *Graph) Checkpoint() error {
	d := G.dur
	if d == nil {
		return ErrNotDurable
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return G.checkpointOnce()
}

// checkpointOnce is the checkpoint body; callers hold dur.ckptMu (never G.mu).
func (G *Graph) checkpointOnce() error {
	d := G.dur
	start := time.Now()
	// Fold the overlay first so the capture below is (usually) just the
	// compacted base — Compact serialises on compactMu and never holds G.mu
	// across its O(n+m) work.
	G.Compact()

	prevs, err := sortedWalPrevs(d.dir)
	if err != nil {
		d.setErr(err)
		return err
	}

	G.mu.Lock()
	if d.everCheckpointed.Load() && G.version.Load() == d.lastCkptVersion.Load() &&
		len(prevs) == 0 && d.log != nil {
		G.mu.Unlock()
		return nil // nothing new, nothing to settle
	}
	G.mu.Unlock()

	// Step 1 of the protocol (see the file comment): stage the rotation
	// off-lock. The next log is created — header written, file and directory
	// fsynced — at wal.log.tmp, and the rotation name for the current log is
	// probed now. The probe's version stamp may lag the one captured under
	// the lock below; rotation order (all the stamp exists for) stays
	// monotone because ckptMu serialises checkpoints and the -NNN suffix
	// breaks ties.
	prevName := walPrevName(d.dir, G.version.Load())
	fresh, err := wal.Create(filepath.Join(d.dir, walTmpFile), d.policy)
	if err != nil {
		// The current log, if any, keeps logging; the next checkpoint
		// retries the rotation.
		d.setErr(err)
		return err
	}
	discardFresh := func() {
		fresh.Close()
		os.Remove(filepath.Join(d.dir, walTmpFile))
	}

	// Step 2: the critical section — capture and rotate. The two renames
	// below are the only filesystem work done while G.mu is held: they make
	// the log split atomic with the captured version, and they are
	// metadata-only (no fsync — durability of the new names rides on the
	// snapshot path's directory fsync, and recovery replays wal.log.tmp for
	// the window before that lands).
	G.mu.Lock()
	v := G.version.Load()
	// Anything past the no-op check writes a snapshot, and that capture needs
	// the master's tree — materialise a deferred mapped boot first.
	G.ensureMasterLocked()
	// Capture. The compacted base is the frozen master whenever no write
	// landed since the fold; otherwise pay a freeze here.
	var fz *graph.Frozen
	if G.base != nil && G.deltaOps.Load() == 0 {
		fz = G.base
	} else {
		workers := buildOptions().ResolvedWorkers(G.g)
		fz = G.g.FreezeReuse(workers, G.base)
	}
	ft := dataio.FlattenTree(G.tree)
	// Rotate: records up to v move aside, the staged log takes everything
	// after. Both are replayed on recovery until the snapshot rename lands.
	retire := d.log
	if retire != nil {
		//acqvet:allow lockio — rotation rename: metadata-only, must be atomic with the version capture
		if err := retire.RenameInto(prevName); err != nil {
			d.log = nil
			d.setErr(err)
			G.mu.Unlock()
			retire.Close()
			discardFresh()
			return err
		}
	}
	//acqvet:allow lockio — swap rename: metadata-only, second half of the atomic rotation
	if err := fresh.RenameInto(filepath.Join(d.dir, walFile)); err != nil {
		d.log = nil
		d.setErr(err)
		G.mu.Unlock()
		if retire != nil {
			retire.Close()
		}
		discardFresh()
		return err
	}
	d.log = fresh
	d.walBytes.Store(fresh.Size())
	d.checkpointing.Store(true)
	defer d.checkpointing.Store(false)
	G.mu.Unlock()

	// Step 3, off-lock: retire the rotated-out descriptor (its records are
	// already as durable as the sync policy promised) and write the capture.
	crash("wal-rotated")
	if retire != nil {
		retire.Close()
	}

	// Write + atomic install, off-lock.
	snapPath := filepath.Join(d.dir, snapshotFile)
	tmp := snapPath + ".tmp"
	if err := writeSnapshotFile(tmp, fz, ft, v); err != nil {
		d.setErr(err)
		return err
	}
	crash("checkpoint-written")
	if err := os.Rename(tmp, snapPath); err != nil {
		d.setErr(err)
		os.Remove(tmp)
		return err
	}
	if err := wal.SyncDir(snapPath); err != nil {
		d.setErr(err)
		return err
	}
	crash("checkpoint-renamed")
	// Every rotated record now predates the durable snapshot.
	retired, _ := sortedWalPrevs(d.dir)
	for _, p := range retired {
		os.Remove(p)
	}
	d.lastCkptVersion.Store(v)
	d.everCheckpointed.Store(true)
	d.checkpoints.Add(1)
	d.lastCkptNanos.Store(time.Since(start).Nanoseconds())
	if e := d.lastErr.Load(); e != nil {
		d.lastErr.Store(nil) // the full state is durable again
	}
	return nil
}

// writeSnapshotFile writes one mapped container with a full fsync.
func writeSnapshotFile(path string, fz *graph.Frozen, ft *dataio.FlatTree, v uint64) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := dataio.WriteMapped(f, fz, ft, v); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// applyRecord applies one logged batch — a WAL record replayed by recovery or
// a frame a follower received — and enforces the invariants both rely on:
// the graph stands exactly at the record's pre-version (anything else is a
// gap in the history), and every op is effective (it changed the graph that
// logged it, so a no-op here means the two states differ). On a durable
// graph ApplyMutations logs the same ops at the same pre-version, so the
// record's frame is written again byte for byte.
func (G *Graph) applyRecord(rec wal.Record) error {
	if cur := G.version.Load(); rec.PreVersion != cur {
		return fmt.Errorf("record at version %d, graph at %d", rec.PreVersion, cur)
	}
	for i, res := range G.ApplyMutations(mutationsOfWalOps(rec.Ops)) {
		if res.Err != nil || !res.Changed {
			return fmt.Errorf("op %d of the record at version %d not effective (%v)", i, rec.PreVersion, res.Err)
		}
	}
	if got, want := G.version.Load(), rec.PreVersion+uint64(len(rec.Ops)); got != want {
		return fmt.Errorf("version %d after the record at version %d, want %d", got, rec.PreVersion, want)
	}
	return nil
}

// --- Mutation ↔ WAL op conversion. The WAL package cannot import acq (acq
// imports it), so the mapping between the two op vocabularies lives here.

func walOpOfMutation(m Mutation) wal.Op {
	switch m.Op {
	case OpInsertEdge:
		return wal.Op{Kind: wal.OpInsertEdge, U: m.U, V: m.V}
	case OpRemoveEdge:
		return wal.Op{Kind: wal.OpRemoveEdge, U: m.U, V: m.V}
	case OpAddKeyword:
		return wal.Op{Kind: wal.OpAddKeyword, U: m.Vertex, Word: m.Keyword}
	default: // OpRemoveKeyword; ApplyMutations rejects unknown ops earlier
		return wal.Op{Kind: wal.OpRemoveKeyword, U: m.Vertex, Word: m.Keyword}
	}
}

func mutationsOfWalOps(ops []wal.Op) []Mutation {
	out := make([]Mutation, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case wal.OpInsertEdge:
			out[i] = Mutation{Op: OpInsertEdge, U: op.U, V: op.V}
		case wal.OpRemoveEdge:
			out[i] = Mutation{Op: OpRemoveEdge, U: op.U, V: op.V}
		case wal.OpAddKeyword:
			out[i] = Mutation{Op: OpAddKeyword, Vertex: op.U, Keyword: op.Word}
		case wal.OpRemoveKeyword:
			out[i] = Mutation{Op: OpRemoveKeyword, Vertex: op.U, Keyword: op.Word}
		}
	}
	return out
}
