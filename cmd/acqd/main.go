// Command acqd serves attributed community queries over HTTP — the paper's
// "online evaluation" scenario: each graph is indexed once at startup and
// queries are answered in milliseconds. It is a thin wrapper over the
// importable engine package; see package engine for the endpoint list and
// the snapshot-isolation serving architecture (lock-free reads against
// immutable index snapshots, copy-on-write updates).
//
// One process serves many named collections: -in/-preset load the "default"
// collection (what the unsuffixed /v1/search and /v1/batch endpoints
// serve), and each repeatable -collection flag preloads a named one.
// Further collections can be created and dropped at runtime via
// POST/DELETE /v1/collections.
//
// With -data-dir, collections are durable: every acknowledged mutation batch
// is WAL-logged under <data-dir>/<name>/ and folded into a memory-mapped
// snapshot by periodic checkpoints, and on restart every collection found
// there is recovered before any preload flags run (a recovered collection
// wins over a same-named -in/-preset/-collection seed).
//
// Usage:
//
//	acqd -in graph.acqm [-addr :8475]
//	acqd -preset dblp -scale 0.5          # serve a synthetic dataset
//	acqd -preset dblp -default-timeout 5s -max-timeout 30s
//	acqd -in main.acqm -collection wiki=wiki.acqm \
//	     -collection social=preset:flickr@0.5    # multi-dataset serving
//	acqd -preset dblp -data-dir /var/lib/acqd   # durable: WAL + recovery
//	acqd -data-dir /var/lib/acqd                # recover-only boot
//	acqd -follow http://leader:8475 -data-dir /var/lib/acqd-replica
//	                                            # read replica of a leader
//
// With -follow, the process is a read replica: it bootstraps every durable
// collection from the leader's snapshot endpoint, keeps them caught up by
// polling the leader's WAL tail, and serves the read surface from its own
// snapshots. Writes answer a structured 403 not_leader naming the leader;
// -max-replica-lag bounds how stale reads may get. -max-concurrent-queries
// adds per-collection admission control (bounded wait queue, 429 overloaded
// + Retry-After under saturation) on leaders and replicas alike.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"github.com/acq-search/acq/engine"
)

// collectionFlags collects the repeatable -collection name=source flags.
type collectionFlags []string

func (c *collectionFlags) String() string { return strings.Join(*c, ",") }

func (c *collectionFlags) Set(v string) error {
	if _, _, err := parseCollectionSpec(v); err != nil {
		return err
	}
	*c = append(*c, v)
	return nil
}

// parseCollectionSpec splits one -collection value. The syntax is
// name=SOURCE where SOURCE is a graph file path (text or .acqm) or
// preset:NAME[@scale] for a synthetic dataset.
func parseCollectionSpec(v string) (name string, src engine.Source, err error) {
	name, sourceArg, ok := strings.Cut(v, "=")
	if !ok || name == "" || sourceArg == "" {
		return "", engine.Source{}, fmt.Errorf("-collection wants name=path or name=preset:NAME[@scale], got %q", v)
	}
	if preset, found := strings.CutPrefix(sourceArg, "preset:"); found {
		src.Preset = preset
		if p, scaleArg, has := strings.Cut(preset, "@"); has {
			scale, err := strconv.ParseFloat(scaleArg, 64)
			if err != nil || scale <= 0 {
				return "", engine.Source{}, fmt.Errorf("-collection %q: bad preset scale %q", v, scaleArg)
			}
			src.Preset, src.Scale = p, scale
		}
		if src.Preset == "" {
			return "", engine.Source{}, fmt.Errorf("-collection %q: empty preset name", v)
		}
		return name, src, nil
	}
	src.Path = sourceArg
	return name, src, nil
}

func main() {
	in := flag.String("in", "", "default collection's graph file (text or an .acqm snapshot)")
	preset := flag.String("preset", "", "serve a synthetic preset as the default collection instead of a file")
	scale := flag.Float64("scale", 1.0, "synthetic preset scale")
	addr := flag.String("addr", engine.DefaultAddr, "listen address")
	cache := flag.Int("cache", 0, "per-snapshot result cache size (0 = default, negative disables)")
	defaultTimeout := flag.Duration("default-timeout", 0, "query timeout applied when a request asks for none (0 = no default)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-requested query timeouts (0 = no cap)")
	maxBatch := flag.Int("max-batch-queries", 0, "max queries accepted per batch request (0 = default, negative = unlimited)")
	maxMutations := flag.Int("max-batch-mutations", 0, "max operations accepted per mutations request (0 = default, negative = unlimited)")
	maxBody := flag.Int64("max-body-bytes", 0, "max request body size in bytes (0 = default, negative = unlimited)")
	compactThreshold := flag.Int("compact-threshold", 0, "effective mutations absorbed into the delta overlay before background compaction (0 = default, negative = republish a full snapshot per write)")
	dataDir := flag.String("data-dir", "", "directory for durable collection state (WAL + snapshots); enables crash recovery")
	fsync := flag.String("fsync", "", "WAL fsync policy, always or never (default always; requires -data-dir)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "effective mutations between automatic checkpoints (0 = default, negative = manual only; requires -data-dir)")
	follow := flag.String("follow", "", "run as a read replica of the leader at this URL (requires -data-dir; writes answer 403 not_leader)")
	followInterval := flag.Duration("follow-interval", 0, "replica tail-poll cadence (0 = default; requires -follow)")
	maxReplicaLag := flag.Uint64("max-replica-lag", 0, "answer 503 replica_lagging when this many mutations behind the leader (0 = always answer; requires -follow)")
	maxConcurrent := flag.Int("max-concurrent-queries", 0, "per-collection admission quota for search/batch evaluations (0 = unlimited)")
	maxQueued := flag.Int("max-queued-queries", 0, "per-collection admission wait queue (0 = 2x quota, negative = shed immediately)")
	var collections collectionFlags
	flag.Var(&collections, "collection", "preload a named collection, name=path or name=preset:NAME[@scale] (repeatable)")
	flag.Parse()

	if *in == "" && *preset == "" && len(collections) == 0 && *dataDir == "" {
		log.Fatal("acqd: need a graph (-in or -preset), a -collection, a -data-dir to recover from, or a leader to -follow")
	}
	if *dataDir == "" && (*fsync != "" || *checkpointEvery != 0) {
		log.Fatal("acqd: -fsync and -checkpoint-every require -data-dir")
	}
	if *follow == "" && (*followInterval != 0 || *maxReplicaLag != 0) {
		log.Fatal("acqd: -follow-interval and -max-replica-lag require -follow")
	}
	if *follow != "" {
		if *dataDir == "" {
			log.Fatal("acqd: -follow requires -data-dir (the replica stores shipped snapshots there)")
		}
		if *in != "" || *preset != "" || len(collections) != 0 {
			log.Fatal("acqd: -follow replicates the leader's collections; drop -in/-preset/-collection")
		}
	}

	// New recovers every durable collection found under -data-dir before the
	// preloads below run, so a recovered collection wins over a same-named
	// preload (the WAL state is newer than the seed file).
	e := engine.New(nil, engine.Config{
		Addr:                 *addr,
		CacheSize:            *cache,
		DefaultTimeout:       *defaultTimeout,
		MaxTimeout:           *maxTimeout,
		MaxBatchQueries:      *maxBatch,
		MaxBatchMutations:    *maxMutations,
		MaxBodyBytes:         *maxBody,
		CompactionThreshold:  *compactThreshold,
		DataDir:              *dataDir,
		SyncMode:             *fsync,
		CheckpointEvery:      *checkpointEvery,
		FollowURL:            *follow,
		FollowInterval:       *followInterval,
		MaxReplicaLag:        *maxReplicaLag,
		MaxConcurrentQueries: *maxConcurrent,
		MaxQueuedQueries:     *maxQueued,
	})
	if *in != "" || *preset != "" {
		if _, ok := e.Collection(engine.DefaultCollection); ok {
			log.Printf("acqd: default collection recovered from %s; ignoring -in/-preset", *dataDir)
		} else {
			g, err := engine.LoadSource(*in, *preset, *scale)
			if err != nil {
				log.Fatal("acqd: ", err)
			}
			if _, err := e.AddCollection(engine.DefaultCollection, g); err != nil {
				log.Fatal("acqd: ", err)
			}
		}
	}
	for _, spec := range collections {
		name, src, err := parseCollectionSpec(spec)
		if err != nil {
			log.Fatal("acqd: ", err)
		}
		if _, ok := e.Collection(name); ok {
			log.Printf("acqd: collection %q recovered from %s; ignoring -collection %s", name, *dataDir, spec)
			continue
		}
		g, err := src.Load()
		if err != nil {
			log.Fatalf("acqd: collection %q: %v", name, err)
		}
		if _, err := e.AddCollection(name, g); err != nil {
			log.Fatal("acqd: ", err)
		}
	}
	log.Fatal(e.ListenAndServe())
}
