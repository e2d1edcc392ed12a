package waterwheel

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestArchitecture holds the code to decisions earlier changes made, each of
// which cut a mechanism down to one path: one way to the disk, one way to
// wait, one takeover, one registry, one encoding of an insert (DESIGN §13,
// §14, §18, §19). Each row is one invariant over the module's non-test code
// outside ledger/, checked on objects through go/types where it has a
// structural form and on code, never comments, where it is a name an earlier
// change deleted (deletedNames). Every row also type-checks a small planted
// violation under the package path it guards and must report it: a row that
// cannot fire guards nothing. A new invariant is one more row with its
// planted violation.
func TestArchitecture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	l := loadModule(t)
	code, err := l.moduleCode()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range architectureRows(t, l) {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(code) {
				t.Error(v)
			}
			t.Run("planted", func(t *testing.T) {
				planted, err := l.plant(r.plant)
				if err != nil {
					t.Fatalf("the planted violation: %v", err)
				}
				if got := r.check(planted); len(got) != r.want {
					t.Errorf("the row reports %d lines on its planted violation, want %d:\n%s", len(got), r.want, strings.Join(got, "\n"))
				}
				if r.inComment == nil {
					return
				}
				if planted, err = l.plant(r.inComment); err != nil {
					t.Fatalf("the planted violation as a comment: %v", err)
				}
				if got := r.check(planted); len(got) != 0 {
					t.Errorf("the row matches a comment:\n%s", strings.Join(got, "\n"))
				}
			})
		})
	}
}

// archRow is one invariant: check returns one line per violation in the
// code, and reports want lines on plant. A deleted name's row also reports
// nothing on inComment, its plant commented out.
type archRow struct {
	name      string
	check     func(c *archCode) []string
	plant     []planted
	want      int
	inComment []planted
}

// planted is a source file by its path from the module root.
type planted struct{ path, src string }

// deletedName is a name an earlier change deleted. The pattern is a regular
// expression matched the way grep matches a line, anywhere inside each piece
// of code codeForms yields; in is where it is barred from and plant declares
// it once, in in's directory.
type deletedName struct {
	pattern string
	in      barred
	plant   string
}

// barred is where a deleted name may not appear: the non-test code scope
// picks. Its planted violation goes in dir.
type barred struct {
	scope scope
	dir   string
}

var (
	everywhere = barred{everywhereBut(), "internal/cluster"}
	metaOnly   = barred{inDirs("internal/meta"), "internal/meta"}
	appendSide = barred{inDirs("internal/cluster", "internal/ingest"), "internal/cluster"}
	// rootOnly is the public API: an example may still declare the name.
	rootOnly = barred{inDirs("."), "."}
	// wireVerbs is the network front end and its command-line client.
	wireVerbs = barred{inDirs(".", "cmd/wwql"), "."}
	// butBloom leaves the name to internal/bloom, whose time sketch keeps a
	// field of that name.
	butBloom = barred{everywhereBut("internal/bloom"), "internal/chunk"}
)

var deletedNames = []deletedName{
	// One log layout, one thing that retires it (§19): the horizon side
	// file, the rewrite-and-swap compaction and the per-process chunk
	// counter.
	{`\.base"`, everywhere, `const horizonFile = "p0.base"`},
	{`compactHook`, everywhere, `var compactHook func()`},
	{`nextIncarnation`, everywhere, `var nextIncarnation int`},
	// One record of which chunks exist (§19): the DFS's directory is its
	// file table; no manifest indexes the files a second time.
	{`MANIFEST`, everywhere, `const manifest = "MANIFEST.json"`},
	{`saveManifest`, everywhere, `func saveManifest() {}`},
	{`manifestEntry`, everywhere, `type manifestEntry struct{}`},
	// One slot table (§14): per-slot state lives in cluster.slots under
	// slotMu, the coordinator resolves executors through it, and a flush
	// has one fenced commit. (installSchema's one fan-out is a row below.)
	{`idxMu`, everywhere, `var idxMu int`},
	{`standbyMu`, everywhere, `var standbyMu int`},
	{`consMu`, everywhere, `var consMu int`},
	{`consStop`, everywhere, `var consStop chan struct{}`},
	{`SetMemExecutor`, everywhere, "type coordinator struct{}\nfunc (*coordinator) SetMemExecutor() {}"},
	{`commitOffsetsLocked`, everywhere, `func commitOffsetsLocked() {}`},
	// One WAL tail loop (§14): every indexing server reads its partition
	// in process through Consume; the WAL-shipping fork, its loopback RPC,
	// the Tail interface and a second consumer loop are gone.
	{`ShipStandbyWAL`, everywhere, `const ShipStandbyWAL = 1`},
	{`ShipWAL`, everywhere, `func ShipWAL() {}`},
	{`RemoteTail`, everywhere, `type RemoteTail struct{}`},
	{`RegisterShipping`, everywhere, `func RegisterShipping() {}`},
	{`wal\.Tail`, everywhere, "var wal struct{ Tail int }\nvar _ = wal.Tail"},
	{`NewStandby`, everywhere, `func NewStandby() {}`},
	{`ingest\.Standby`, everywhere, "var ingest struct{ Standby int }\nvar _ = ingest.Standby"},
	// One way to take over a slot (§14): a kill fences the owner and a
	// fresh server replays the WAL from the committed offset (§V); the hot
	// standby, its knobs, the passive ingest mode and its shadow are gone.
	{`HotStandby`, everywhere, `var HotStandby bool`},
	{`StandbyLagRecords`, everywhere, `var StandbyLagRecords int`},
	{`StartStandby`, everywhere, `func StartStandby() {}`},
	{`PromoteStandby`, everywhere, `func PromoteStandby() {}`},
	{`AwaitStandby`, everywhere, `func AwaitStandby() {}`},
	{`Passive:`, everywhere, `var _ = struct{ Passive bool }{Passive: true}`},
	{`resetOnCommit`, everywhere, `var resetOnCommit bool`},
	{`shadowBase`, everywhere, `var shadowBase int64`},
	// One chunk shape (§6, §11): Build writes sketches and pre-aggregates
	// and nothing else; the secondary attribute index and the
	// false-positive knob are gone.
	{`EnableSecondaryIndex`, everywhere, `var EnableSecondaryIndex bool`},
	{`SecondaryIndexOffset`, everywhere, `var SecondaryIndexOffset int`},
	{`SecondarySpec`, everywhere, `type SecondarySpec struct{}`},
	{`SelectLeavesFor`, everywhere, `func SelectLeavesFor() {}`},
	{`RequiredPayloadU64EQ`, everywhere, `func RequiredPayloadU64EQ() {}`},
	{`HasSecondary`, everywhere, `var HasSecondary bool`},
	{`FPRate`, everywhere, `var FPRate float64`},
	// One chunk index in meta (§16, §19): a plan comes from the R-tree
	// alone, a recurrence prunes with one exact test, meta holds no live
	// state and no running query; time tiering, which answered range
	// queries with synthetic rows, is gone.
	{`tierIndex`, everywhere, `var tierIndex int`},
	{`matchHours`, everywhere, `func matchHours() {}`},
	{`ChunksForWindowsWithWatermark`, everywhere, `func ChunksForWindowsWithWatermark() {}`},
	{`maxRecurWindows`, everywhere, `const maxRecurWindows = 1`},
	{`QueryInfo`, everywhere, `type QueryInfo struct{}`},
	{`Recurrence\) Windows`, everywhere, "type Recurrence struct{}\nfunc (Recurrence) Windows() {}"},
	{`TierWarmAfterMillis`, everywhere, `var TierWarmAfterMillis int64`},
	{`TickCompact`, everywhere, `func TickCompact() {}`},
	{`SetTier`, everywhere, `func SetTier() {}`},
	{`TierCounts`, everywhere, `func TierCounts() {}`},
	{`ReplaceChunks`, everywhere, `func ReplaceChunks() {}`},
	{`DownsampledPayloadLen`, everywhere, `const DownsampledPayloadLen = 32`},
	{`handoffs`, metaOnly, `var handoffs map[int]int64`},
	{`s\.actual`, metaOnly, "type server struct{ actual int }\nfunc (s *server) live() int { return s.actual }"},
	{`ReportLive`, everywhere, `func ReportLive() {}`},
	{`LiveRegions`, everywhere, `func LiveRegions() {}`},
	{`PublishLive`, everywhere, `func PublishLive() {}`},
	{`reportLive`, everywhere, `func reportLive() {}`},
	{`widenLocked`, everywhere, `func widenLocked() {}`},
	{`emptyLive`, everywhere, `var emptyLive bool`},
	{`LiveRegion\b`, everywhere, `type LiveRegion struct{}`},
	// One way to wait (§18): every waiter parks on a wal.Watermark; the
	// committer's kick channel and shutdown flag, the dispatch board, the
	// flush queue's channels, the second switches for chunk-write failures
	// and sketch pruning and the dead balancer switch are gone.
	{`kickCommitter`, everywhere, `func kickCommitter() {}`},
	{`commClosed`, everywhere, `var commClosed bool`},
	{`newBoard`, everywhere, `func newBoard() {}`},
	{`FlushFailHook`, everywhere, `var FlushFailHook func() error`},
	{`UseBloom`, everywhere, `var UseBloom bool`},
	{`flushCh`, everywhere, `var flushCh chan int`},
	{`retryCh`, everywhere, `var retryCh chan int`},
	{`signalRetry`, everywhere, `func signalRetry() {}`},
	{`flusherDone`, everywhere, `var flusherDone chan struct{}`},
	{`DisableAdaptive`, everywhere, `var DisableAdaptive bool`},
	// One crash model (§19): a host crash is one call on durable.Files;
	// no store keeps a crash fake or an fsync hold of its own.
	{`CrashDiscardUnsynced`, everywhere, `func CrashDiscardUnsynced() {}`},
	{`HoldFsyncs`, everywhere, `func HoldFsyncs() {}`},
	// One record of metadata durability (§19): every registry edit is a
	// journal record and a compaction re-registers the registry; the image,
	// the checkpoint cadence, its goroutine and gate, the WAL's cold-read
	// horizon, the epoch generations and the image's size wall are gone.
	{`checkpointCommits`, everywhere, `var checkpointCommits int`},
	{`checkpointer\(`, everywhere, `func checkpointer() {}`},
	{`meta\.snap`, everywhere, `const image = "meta.snap"`},
	{`readCold`, everywhere, `func readCold() {}`},
	{`ckptDurable`, everywhere, `var ckptDurable bool`},
	{`epochGenShift`, everywhere, `const epochGenShift = 32`},
	{`StartGeneration`, everywhere, `func StartGeneration() {}`},
	{`ErrImageTooLarge`, everywhere, `var ErrImageTooLarge error`},
	// One encoding of an insert (§13): a batch is the wire frame's records
	// from the socket to the WAL; nothing between the handler and the log
	// encodes or decodes it again.
	{`encodeRecords`, appendSide, `func encodeRecords() {}`},
	{`decodeRecords`, appendSide, `func decodeRecords() {}`},
	// One telemetry configuration (§8): the registry is never nil and a query
	// builds its span tree only when its caller asks; the switch, the ring's
	// own root span, the modeled-read histograms and the settings no caller
	// changed (the cluster's sleeper, both DFS fault seeds, the chunk bucket
	// width) are gone, and the recurrence counter has its own name.
	{`DisableTelemetry`, everywhere, `var DisableTelemetry bool`},
	{`ringRoot`, everywhere, `func ringRoot() {}`},
	{`SleepFn`, everywhere, `var SleepFn func()`},
	{`FaultSeed`, everywhere, `var DFSFaultSeed int64`},
	{`ObserveRead`, everywhere, `var ObserveRead func()`},
	{"[\"`]waterwheel_dfs_read_seconds", everywhere, `const readSeconds = "waterwheel_dfs_read_seconds"`},
	{"[\"`]waterwheel_tier_pruned_chunks_total", everywhere, "const tierPruned = `waterwheel_tier_pruned_chunks_total`"},
	{`BucketMillis`, butBloom, `type BuildOptions struct{ BucketMillis int64 }`},
	// One fault-injection harness (§10, §14): the scripted schedules are op
	// lists the seeded runner executes; the takeover suite's own runner, its
	// string steps and report, and the handoff experiment are gone.
	{`takeoverRunner`, everywhere, `type takeoverRunner struct{}`},
	{`tkStep`, everywhere, `type tkStep struct{}`},
	{`TakeoverReport`, everywhere, `type TakeoverReport struct{}`},
	{`runHandoff`, everywhere, `func runHandoff() {}`},
	// One WAL layout (§19): frames carry a CRC32C; the layout before it is
	// refused, not read.
	{"[\"`]WWWAL001", everywhere, `const v1 = "WWWAL001"`},
	// One chunk format (§12): every chunk is summed and carries its
	// pre-aggregate block; the older format's secondary-section skip, the
	// switch that left the block out and the version in the writer's names
	// are gone.
	{`flagSecondary`, everywhere, `const flagSecondary = 2`},
	{`DisableAgg`, everywhere, `type BuildOptions struct{ DisableAgg bool }`},
	{`magicV2`, everywhere, `var magicV2 [8]byte`},
	{`buildV2`, everywhere, `func buildV2() {}`},
	// One predicate path (§16): a recurring window is a Filter op, pruned
	// by MayMatchTimes and applied inside every scan; the query's second
	// predicate, its wire flag, the rule that lifted the subqueries' limit
	// and the coordinator's post-filter are gone.
	{`wireHasRecur`, everywhere, `const wireHasRecur = 2`},
	{`subLimit`, everywhere, `var subLimit int`},
	{`\bRecur\b`, everywhere, `type Query struct{ Recur *int }`},
	{`\bRecurrence\b`, everywhere, `type Recurrence struct{}`},
	{`Run\) Keep\(`, everywhere, "type Run struct{}\nfunc (r *Run) Keep() {}"},
	// One insert→query barrier (§13, §17, §18): a query waits for every
	// tuple acked before it was issued; the public Drain, the wire verb and
	// wwql's are gone (Cluster.Drain settles Close, chaos and tests).
	{`\*DB\) Drain\(`, rootOnly, "type DB struct{}\nfunc (*DB) Drain() error { return nil }"},
	{`\*Client\) Drain\(`, rootOnly, "type Client struct{}\nfunc (*Client) Drain() error { return nil }"},
	{`"drain"`, wireVerbs, `const verb = "drain"`},
	// One template (§15): the separator list routes, scans and is what a
	// flush retains; the inner-node tree, the two-armed run sort and the
	// fixed check cadence with its size floor are gone.
	{`tinner`, everywhere, `type tinner struct{}`},
	{`buildTemplate`, everywhere, `func buildTemplate() {}`},
	{`sortRunByKey`, everywhere, `func sortRunByKey() {}`},
	{`sinceChk`, everywhere, `var sinceChk int64`},
	{`MinPerLeaf`, everywhere, `type TemplateConfig struct{ MinPerLeaf int }`},
	// The geo helper is the taxi example's, over internal/zorder; the root
	// package exports no geo API.
	{`GeoGrid`, rootOnly, `type GeoGrid struct{}`},
	{`QueryGeoRect`, rootOnly, "type DB struct{}\nfunc (*DB) QueryGeoRect() {}"},
}

// architectureRows returns the structural rows, the gofmt row and a row per
// deleted name.
func architectureRows(t *testing.T, l *exportLoader) []archRow {
	updateSchema := lookupMethod(t, l, "internal/dispatcher", "Dispatcher", "UpdateSchema")
	rows := []archRow{{
		// One crash model (§19): the log, the chunk files and the journal
		// create, write new files, fsync, rename and unlink only through
		// durable.Files, which also simulates a host crash over all of them.
		name: "one-way-to-the-disk",
		check: func(c *archCode) []string {
			return c.uses(inDirs("internal/wal", "internal/dfs", "internal/cluster"), pkgObject("os", "WriteFile", "OpenFile", "Create", "Truncate", "Rename", "Remove"))
		},
		plant: []planted{
			{"internal/wal/planted.go", "package wal\n\nimport \"os\"\n\nfunc files() {\n\tos.WriteFile(\"a\", nil, 0o644)\n\tos.OpenFile(\"a\", os.O_RDWR, 0)\n\tos.Create(\"a\")\n\tos.Truncate(\"a\", 0)\n\tos.Rename(\"a\", \"b\")\n\tos.Remove(\"a\")\n\tos.RemoveAll(\"a\")\n}\n"},
			{"internal/durable/planted.go", "package durable\n\nimport \"os\"\n\nvar create = os.Create\n"},
		},
		want: 6,
	}, {
		// One way to wait (§18): every waiter parks on a wal.Watermark.
		name:  "no-condition-variable",
		check: func(c *archCode) []string { return c.uses(everywhereBut(), pkgObject("sync", "Cond", "NewCond")) },
		plant: []planted{{"internal/ingest/planted.go", "package ingest\n\nimport \"sync\"\n\nvar mu sync.Mutex\nvar cond = sync.NewCond(&mu)\nvar parked *sync.Cond\n"}},
		want:  2,
	}, {
		// One way to wait (§18): the only sleeps left are the DFS latency
		// simulation and fig11's open-loop pacing.
		name: "no-sleep-poll",
		check: func(c *archCode) []string {
			return c.uses(everywhereBut("internal/dfs", "internal/bench/fig11.go"), pkgObject("time", "Sleep"))
		},
		plant: []planted{
			{"internal/cluster/planted.go", "package cluster\n\nimport \"time\"\n\nfunc poll() { time.Sleep(time.Millisecond) }\n"},
			{"internal/dfs/planted.go", "package dfs\n\nimport \"time\"\n\nfunc latency() { time.Sleep(time.Millisecond) }\n"},
			{"internal/bench/fig11.go", "package bench\n\nimport \"time\"\n\nfunc pace() { time.Sleep(time.Millisecond) }\n"},
		},
		want: 1,
	}, {
		// One record of metadata durability (§19) has no gob image; time
		// tiering's compactor is gone; the log and the cluster read the
		// WAL in process, not through the transport (§14).
		name: "no-banned-import",
		check: func(c *archCode) []string {
			return append(append(
				c.imports(everywhereBut(), "encoding/gob"),
				c.imports(everywhereBut(), l.module+"/internal/compact")...),
				c.imports(inDirs("internal/wal", "internal/cluster"), l.module+"/internal/transport")...)
		},
		plant: []planted{
			{"cmd/wwgen/planted.go", "package main\n\nimport _ \"encoding/gob\"\n"},
			{"internal/compact/compact.go", "package compact\n"},
			{"internal/meta/planted.go", "package meta\n\nimport _ \"waterwheel/internal/compact\"\n"},
			{"internal/wal/planted.go", "package wal\n\nimport _ \"waterwheel/internal/transport\"\n"},
			{"internal/cluster/planted.go", "package cluster\n\nimport _ \"waterwheel/internal/transport\"\n"},
			{"internal/queryexec/planted.go", "package queryexec\n\nimport _ \"waterwheel/internal/transport\"\n"},
		},
		want: 4,
	}, {
		// One schema fan-out (§14): installSchema alone tells the
		// dispatchers, after every serving server.
		name: "one-schema-fan-out",
		check: func(c *archCode) []string {
			uses := c.uses(inDirs("internal/cluster"), func(obj types.Object) bool { return obj == updateSchema })
			if len(uses) == 1 {
				return nil
			}
			return []string{fmt.Sprintf("internal/cluster uses (*dispatcher.Dispatcher).UpdateSchema %d times, want once (installSchema):\n%s", len(uses), strings.Join(uses, "\n"))}
		},
		plant: []planted{{"internal/cluster/planted.go", "package cluster\n\nimport (\n\t\"waterwheel/internal/dispatcher\"\n\t\"waterwheel/internal/meta\"\n)\n\nfunc installSchema(d *dispatcher.Dispatcher, s meta.PartitionSchema) {\n\td.UpdateSchema(s)\n\td.UpdateSchema(s)\n}\n"}},
		want:  1,
	}, {
		// One encoding of an insert (§13): the insert handler passes the
		// frame's records on without decoding them.
		name: "net-go-decodes-no-batch",
		check: func(c *archCode) []string {
			return c.uses(inFiles("net.go"), func(obj types.Object) bool {
				return obj.Pkg() != nil && obj.Pkg().Path() == l.module+"/internal/model" && strings.HasPrefix(obj.Name(), "DecodeTuples")
			})
		},
		plant: []planted{
			{"net.go", "package waterwheel\n\nimport \"waterwheel/internal/model\"\n\nvar decode = model.DecodeTuplesInto\n"},
			{"http.go", "package waterwheel\n\nimport \"waterwheel/internal/model\"\n\nvar decodeAll = model.DecodeTuples\n"},
		},
		want: 1,
	}, {
		// Every Go file outside ledger/, tests included, is as gofmt
		// prints it.
		name:  "gofmt",
		check: (*archCode).unformatted,
		plant: []planted{{"internal/cluster/planted_test.go", "package cluster\n\nvar  unformatted = 1\n"}},
		want:  1,
	}}
	for _, d := range deletedNames {
		re := regexp.MustCompile(d.pattern)
		path, pkg := d.in.dir+"/planted.go", filepath.Base(d.in.dir)
		if d.in.dir == "." {
			path, pkg = "planted.go", l.module
		}
		head := "package " + pkg + "\n\n"
		rows = append(rows, archRow{
			name:      "deleted " + d.pattern,
			check:     func(c *archCode) []string { return c.names(d.in.scope, re) },
			plant:     []planted{{path, head + d.plant + "\n"}},
			want:      1,
			inComment: []planted{{path, head + "// " + strings.ReplaceAll(d.plant, "\n", "\n// ") + "\n"}},
		})
	}
	return rows
}

// archCode is what a row checks: type-checked packages of non-test files,
// the source of every Go file, tests too, by path, and the pieces of code
// of the packages' files that deleted names are matched against.
type archCode struct {
	fset  *token.FileSet
	pkgs  []*exportPkg
	src   map[string][]byte
	forms map[string][]formAt // by text
}

// formAt is where a piece of code is, and the package directory it is in.
type formAt struct {
	dir string
	pos token.Pos
}

func newArchCode(fset *token.FileSet, pkgs []*exportPkg, src map[string][]byte) *archCode {
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].dir < pkgs[j].dir })
	c := &archCode{fset: fset, pkgs: pkgs, src: src, forms: map[string][]formAt{}}
	for _, p := range pkgs {
		for _, f := range p.files {
			codeForms(f, func(pos token.Pos, text string) {
				c.forms[text] = append(c.forms[text], formAt{filepath.ToSlash(p.dir), pos})
			})
		}
	}
	return c
}

// moduleCode returns the loaded packages outside ledger/ and the source of
// every Go file under the module root outside ledger/ and hidden
// directories.
func (l *exportLoader) moduleCode() (*archCode, error) {
	var pkgs []*exportPkg
	for dir, p := range l.pkgs {
		if p != nil && !under(filepath.ToSlash(dir), "ledger") {
			pkgs = append(pkgs, p)
		}
	}
	src := map[string][]byte{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "ledger"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src[filepath.ToSlash(path)], err = os.ReadFile(path)
		return err
	})
	return newArchCode(l.fset, pkgs, src), err
}

// plant type-checks files as the packages of their directories, each under
// the module's import path for its directory, resolving imports among the
// planted packages first and through l after. Test files are source only.
func (l *exportLoader) plant(files []planted) (*archCode, error) {
	o := &plantImporter{l: l, srcs: map[string]map[string][]byte{}, pkgs: map[string]*exportPkg{}}
	src := map[string][]byte{}
	for _, f := range files {
		src[f.path] = []byte(f.src)
		if strings.HasSuffix(f.path, "_test.go") {
			continue
		}
		dir := filepath.Dir(filepath.FromSlash(f.path))
		if o.srcs[dir] == nil {
			o.srcs[dir] = map[string][]byte{}
		}
		o.srcs[dir][filepath.FromSlash(f.path)] = []byte(f.src)
	}
	var pkgs []*exportPkg
	for dir := range o.srcs {
		p, err := o.load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return newArchCode(l.fset, pkgs, src), nil
}

// plantImporter type-checks planted packages on demand, each once.
type plantImporter struct {
	l    *exportLoader
	srcs map[string]map[string][]byte // by directory, then path
	pkgs map[string]*exportPkg        // by directory
}

func (o *plantImporter) load(dir string) (*exportPkg, error) {
	if p, ok := o.pkgs[dir]; ok {
		return p, nil
	}
	importPath := o.l.module
	if dir != "." {
		importPath += "/" + filepath.ToSlash(dir)
	}
	p, err := o.l.check(importPath, dir, o.srcs[dir], o)
	if err != nil {
		return nil, err
	}
	o.pkgs[dir] = p
	return p, nil
}

func (o *plantImporter) Import(path string) (*types.Package, error) {
	if rest, ok := strings.CutPrefix(path, o.l.module+"/"); ok {
		if dir := filepath.FromSlash(rest); o.srcs[dir] != nil {
			p, err := o.load(dir)
			if err != nil {
				return nil, err
			}
			return p.types, nil
		}
	}
	return o.l.Import(path)
}

// A scope picks code by its package directory and file path, both
// slash-separated from the module root.
type scope func(dir, file string) bool

// under reports whether path is root or lies below it.
func under(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}

// inDirs picks the packages in the directories and below them.
func inDirs(dirs ...string) scope {
	return func(dir, _ string) bool {
		for _, d := range dirs {
			if under(dir, d) {
				return true
			}
		}
		return false
	}
}

// inFiles picks the files.
func inFiles(files ...string) scope {
	return func(_, file string) bool {
		for _, f := range files {
			if file == f {
				return true
			}
		}
		return false
	}
}

// everywhereBut picks every package but those in the directories or below
// them, and every file but the files, among paths.
func everywhereBut(paths ...string) scope {
	return func(dir, file string) bool {
		for _, p := range paths {
			if under(dir, p) || file == p {
				return false
			}
		}
		return true
	}
}

// pos returns a position as file:line, the file slash-separated.
func (c *archCode) pos(p token.Pos) (file string, line int) {
	at := c.fset.Position(p)
	return filepath.ToSlash(at.Filename), at.Line
}

// uses returns a line for each use in scope of an object match picks.
func (c *archCode) uses(in scope, match func(types.Object) bool) []string {
	var out []string
	for _, p := range c.pkgs {
		dir := filepath.ToSlash(p.dir)
		for id, obj := range p.info.Uses {
			if file, line := c.pos(id.Pos()); match(obj) && in(dir, file) {
				out = append(out, fmt.Sprintf("%s:%d: uses %s", file, line, types.ObjectString(obj, nil)))
			}
		}
	}
	sort.Strings(out)
	return out
}

// imports returns a line for each import of path in scope.
func (c *archCode) imports(in scope, path string) []string {
	var out []string
	for _, p := range c.pkgs {
		dir := filepath.ToSlash(p.dir)
		for _, f := range p.files {
			for _, spec := range f.Imports {
				if file, line := c.pos(spec.Pos()); spec.Path.Value == `"`+path+`"` && in(dir, file) {
					out = append(out, fmt.Sprintf("%s:%d: imports %s", file, line, path))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// names returns a line for each line of code in scope holding a piece of
// code re matches, naming the shortest such piece.
func (c *archCode) names(in scope, re *regexp.Regexp) []string {
	lines := map[string]string{} // file:line → the piece
	for text, ats := range c.forms {
		if !re.MatchString(text) {
			continue
		}
		for _, at := range ats {
			file, line := c.pos(at.pos)
			key := fmt.Sprintf("%s:%d", file, line)
			if old, ok := lines[key]; in(at.dir, file) && (!ok || len(text) < len(old) || len(text) == len(old) && text < old) {
				lines[key] = text
			}
		}
	}
	out := make([]string, 0, len(lines))
	for key, text := range lines {
		out = append(out, fmt.Sprintf("%s: %s holds the deleted name %s", key, text, re))
	}
	sort.Strings(out)
	return out
}

// unformatted returns a line for each Go file gofmt would change.
func (c *archCode) unformatted() []string {
	var out []string
	for path, src := range c.src {
		formatted, err := format.Source(src)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", path, err))
		} else if !bytes.Equal(formatted, src) {
			out = append(out, path+": not gofmt-formatted")
		}
	}
	sort.Strings(out)
	return out
}

// codeForms calls fn with every piece of f's code a deleted name is matched
// against, and its position: each identifier; each selector, call,
// composite-literal key and function declaration as written — x.Sel, f(,
// Key:, T) M( — and each string literal with its quotes. The loader parses
// without comments, so no comment is ever matched.
func codeForms(f *ast.File, fn func(token.Pos, string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			fn(n.Pos(), n.Name)
		case *ast.SelectorExpr:
			fn(n.Pos(), types.ExprString(n))
		case *ast.CallExpr:
			fn(n.Pos(), types.ExprString(n.Fun)+"(")
		case *ast.KeyValueExpr:
			fn(n.Pos(), types.ExprString(n.Key)+":")
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				fn(n.Pos(), n.Value)
			}
		case *ast.FuncDecl:
			form := n.Name.Name + "("
			if n.Recv != nil {
				form = types.ExprString(n.Recv.List[0].Type) + ") " + form
			}
			fn(n.Name.Pos(), form)
		}
		return true
	})
}

// pkgObject picks the package-level objects of the standard package path
// with the given names.
func pkgObject(path string, names ...string) func(types.Object) bool {
	return func(obj types.Object) bool {
		if obj.Pkg() == nil || obj.Pkg().Path() != path || obj.Parent() != obj.Pkg().Scope() {
			return false
		}
		for _, n := range names {
			if obj.Name() == n {
				return true
			}
		}
		return false
	}
}

// lookupMethod returns the method of the named type of the module package
// in dir.
func lookupMethod(t *testing.T, l *exportLoader, dir, typ, method string) types.Object {
	p := l.pkgs[filepath.FromSlash(dir)]
	if p == nil {
		t.Fatalf("%s is not loaded", dir)
	}
	tn := p.types.Scope().Lookup(typ)
	if tn == nil {
		t.Fatalf("%s has no type %s", dir, typ)
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, p.types, method)
	if obj == nil {
		t.Fatalf("%s.%s has no method %s", dir, typ, method)
	}
	return obj
}
