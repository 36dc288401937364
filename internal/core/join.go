package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/storage"
	"repro/internal/sweep"
)

// DefaultCachePages sizes the buffer pool of each side of each join worker
// (one worker per side at Parallelism 1) and of each range query.
const DefaultCachePages = 256

// JoinConfig controls the adaptive exploration join.
type JoinConfig struct {
	// DisableTransforms turns off role and layout transformations: the join
	// then always uses space nodes as the data layout with the initial
	// guide (the "No TR" configuration of §VII-D1).
	DisableTransforms bool
	// TSU is the initial node→unit split threshold; DefaultTSU when zero
	// (§VII-D2). The OverFit/UnderFit configurations of the paper set 1.5
	// and 1e6 with FixedThresholds.
	TSU float64
	// TSO is the initial unit→element split threshold; DefaultTSO when zero.
	TSO float64
	// FixedThresholds disables runtime recalibration of TSU/TSO.
	FixedThresholds bool
	// GuideB starts with dataset B as the guide; the paper assigns the
	// initial roles randomly, adaptation makes the choice irrelevant.
	GuideB bool
	// Parallelism sets the number of worker goroutines processing pivot
	// nodes. 0 or 1 run the single-threaded join — byte-for-byte the
	// paper-faithful sequential execution. Values > 1 split the guide's
	// pivot nodes into that many contiguous Hilbert-order chunks, each
	// processed by a worker with private walker state, scratch buffers,
	// buffer pool and cost-model measurements (thresholds stay globally
	// shared through atomics); a negative value uses runtime.GOMAXPROCS(0).
	// When more than one worker runs, the join's emit callback may be
	// invoked from multiple goroutines concurrently and must be safe for
	// that; each DefaultCachePages-sized buffer pool is per worker per side.
	// At every setting the join reads through private Store.OpenReader
	// views, never the indexes' own stores, so joins and range queries over
	// shared indexes may run concurrently.
	Parallelism int
	// Stop, when non-nil, is a cooperative abort flag: raising it makes
	// every pivot loop (sequential or parallel) exit before its next pivot,
	// and the unit-level loops exit before their next pivot unit. The join
	// then returns normally with partial stats and no error — the caller
	// that raised the flag knows why it stopped (the engine layer's
	// streaming emit uses this to abort on a failed or canceled consumer).
	Stop *atomic.Bool
}

// JoinStats reports the cost of one join.
type JoinStats struct {
	// Comparisons counts element-element MBB intersection tests (the
	// paper's "#intersection tests"; its Fig. 11 variant for TRANSFORMERS
	// also includes metadata comparisons — add MetaComparisons for that).
	Comparisons uint64
	// MetaComparisons counts descriptor tests (walks, crawls, filters).
	MetaComparisons uint64
	// WalkSteps counts descriptors dequeued by adaptive walks.
	WalkSteps uint64
	// RoleSwitches, NodeSplits and UnitSplits count executed
	// transformations (§VI).
	RoleSwitches, NodeSplits, UnitSplits uint64
	// Results counts emitted pairs.
	Results uint64
	// IO is the join-phase storage traffic (cache hits excluded).
	IO storage.Stats
	// Wall is the total elapsed in-memory time.
	Wall time.Duration
	// ExploreWall is the adaptive-exploration share of Wall: walking,
	// crawling and metadata filtering (the "Overhead" series of Fig. 14).
	ExploreWall time.Duration
	// JoinWall is the data share of Wall: page reads, grid builds and the
	// in-memory joins (the "Join cost" series of Fig. 14).
	JoinWall time.Duration
	// TSUFinal, TSOFinal and CfltFinal expose the cost model's state after
	// the join (threshold sensitivity experiments).
	TSUFinal, TSOFinal, CfltFinal float64
}

// side is the per-dataset state of one join run (and of one range query). A
// side is taken from its index's pool and put back when the run ends, so the
// arrays sized by the index and every buffer a pivot fills — batch run lists,
// candidate unit lists, the page-MBB filter's marks and boxes, the in-memory
// grid — are allocated by the first joins over an index and reset, not
// reallocated, by the ones after.
//
// A side copies no element. The batch a pivot reads is the list of page views
// the store handed out — the catalog's own element arrays — and a grown view's
// radius is added where an element is used: as the grid loads its build
// side, as a probe or an element-level test takes an element, as a range
// query reports one.
type side struct {
	idx        *Index
	pool       *sidePool    // the free list it returns to
	st         *storage.LRU // buffer pool over the run's store view; cold at acquire
	checked    []bool       // per node: fully processed as pivot
	remaining  int          // unchecked node count
	cursor     int          // position in idx.nodeOrder
	lastNode   int32        // node-walk position
	nodeWalker *walker
	unitWalker *walker
	isA        bool
	// readThroughGap is the largest gap (in pages) a batch read streams
	// through rather than seeking over: the break-even point seek/transfer
	// of the join's disk model, the same heuristic real scan readahead
	// uses. Zero disables read-through.
	readThroughGap storage.PageID
	// readMark/readEpoch tally distinct candidate pages read while one
	// pivot is processed at a finer layout, for the cflt feedback.
	readMark  []uint32
	readEpoch uint32
	// scoped/scopeBox bound the side's unchecked universe when restrictTo
	// limited it to one worker's chunk: scopeBox is the union of the
	// in-span nodes' PageMBBs, so any pivot of the other side that misses
	// it cannot join anything this side still owns. After a role switch
	// the worker's pivot loop sweeps the whole (unrestricted) other
	// dataset; this box prunes the sweep's far-away pivots to one box test
	// instead of a walk plus crawl each, keeping cross-worker duplicated
	// exploration bounded. Sequential runs never set it.
	scoped   bool
	scopeBox geom.Box

	// Per-pivot scratch, each valid until the side's next use of it.
	runs [][]geom.Element // the pages of this side's batch, as read
	cand []int32          // units a crawl of this side collected
	kept []int32          // units surviving the page-MBB filter
	keep []bool           // the filter's marks, by position in refs
	refs []geom.Element   // the filter's input: unit page MBBs
	grid grid.Grid        // in-memory join built over this side's batch
}

// sidePool is the free list of an index's idle sides, shared with its Grown
// views, whose descriptor counts are the index's. A side goes back on it when
// its run ends and stays there until the index and its views are collected,
// so a join takes any idle side whichever goroutine runs it, and the index
// never builds more sides than were in use at once.
type sidePool struct {
	mu    sync.Mutex
	idle  []*side
	built int // sides ever made for the index
}

// acquireSide takes an idle side of idx (or builds one when none is idle)
// and readies it for a run reading through base (the private store reader of
// one join worker or one range query): nothing checked, walks unpositioned,
// buffer pool cold. The side may last have served another of idx's views.
// release hands it back.
func acquireSide(idx *Index, base storage.Store, isA bool) *side {
	p := idx.sides
	p.mu.Lock()
	var s *side
	if n := len(p.idle); n > 0 {
		s, p.idle[n-1] = p.idle[n-1], nil
		p.idle = p.idle[:n-1]
	} else {
		p.built++
	}
	p.mu.Unlock()
	if s == nil {
		s = &side{
			pool:       p,
			st:         storage.NewLRU(nil, 0),
			checked:    make([]bool, len(idx.nodes)),
			nodeWalker: newWalker(len(idx.nodes)),
			unitWalker: newWalker(len(idx.units)),
			readMark:   make([]uint32, len(idx.units)),
		}
	}
	s.idx = idx
	s.st.Reset(base, DefaultCachePages)
	clear(s.checked)
	s.remaining = len(idx.nodes)
	s.cursor, s.lastNode = 0, 0
	s.isA = isA
	s.scoped, s.scopeBox = false, geom.Box{}
	return s
}

// release puts the side back on its free list; the caller must not use it
// (or any slice it got from it) afterwards. The side forgets the view it
// served, so an idle side pins no view's descriptors.
func (s *side) release() {
	s.idx = nil
	p := s.pool
	p.mu.Lock()
	p.idle = append(p.idle, s)
	p.mu.Unlock()
}

// nextUnchecked returns the next pivot node in Hilbert order, skipping
// checked nodes. The caller guarantees remaining > 0.
func (s *side) nextUnchecked() int32 {
	for {
		n := s.idx.nodeOrder[s.cursor%len(s.idx.nodeOrder)]
		s.cursor++
		if !s.checked[n] {
			return n
		}
	}
}

func (s *side) markChecked(n int32) {
	if !s.checked[n] {
		s.checked[n] = true
		s.remaining--
	}
}

// restrictTo limits the side's pivot universe to the nodeOrder span [lo, hi):
// every out-of-span node is pre-marked checked, exactly as if another worker
// had already processed it as a pivot — crawls skip it and the pairs it is
// involved in are left to the worker owning its span. Running the unmodified
// sequential algorithm over the restricted universe therefore emits exactly
// the intersecting pairs (a, b) with a inside the span, each exactly once,
// and the union over the disjoint spans of a parallel join is exactly the
// sequential result set.
func (s *side) restrictTo(lo, hi int) {
	for i := range s.checked {
		s.checked[i] = true
	}
	box := geom.EmptyBox()
	for k := lo; k < hi; k++ {
		n := s.idx.nodeOrder[k]
		s.checked[n] = false
		box = box.Union(s.idx.nodes[n].PageMBB)
	}
	s.remaining = hi - lo
	s.cursor = lo
	s.scoped = true
	s.scopeBox = box
}

// nodeStart picks the walk start for a target: the nearest node by Hilbert
// value of the target center, or the previous walk position, whichever region
// is closer (§V: the B+-tree only provides the starting point of the
// exploration).
func (s *side) nodeStart(target geom.Box) int32 {
	byKey, ok := s.idx.nearestNode(s.idx.mapper.Value(target.Center()))
	if !ok || s.idx.nodes[s.lastNode].Nav.DistSq(target) <= s.idx.nodes[byKey].Nav.DistSq(target) {
		return s.lastNode
	}
	return byKey
}

// readPage appends one data page, read through the side's cache, to the
// batch: the view itself, its elements as stored (ungrown).
func (s *side) readPage(p storage.PageID) error {
	page, err := s.st.View(p)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, page)
	return nil
}

// readUnit makes one space unit's page the batch, replacing what it held.
func (s *side) readUnit(ui int32) error {
	s.runs = s.runs[:0]
	return s.readPage(s.idx.units[ui].Page)
}

// batch is what the side read, as the grid joins it: the page views, grown by
// what the index is (Index.Grown).
func (s *side) batch() grid.Batch {
	return grid.Batch{Runs: s.runs, Grow: s.idx.grow}
}

// beginReadTally starts a fresh distinct-read count for one pivot.
func (s *side) beginReadTally() {
	s.readEpoch++
	if s.readEpoch == 0 { // wrapped around on a long-pooled side
		clear(s.readMark)
		s.readEpoch = 1
	}
}

// tallyRead marks unit ui as read for the current pivot and reports whether
// this was its first read.
func (s *side) tallyRead(ui int32) bool {
	if s.readMark[ui] == s.readEpoch {
		return false
	}
	s.readMark[ui] = s.readEpoch
	return true
}

// sortByPage orders unit IDs by their physical page so batch reads run
// sequentially over the disk.
func (s *side) sortByPage(units []int32) {
	slices.SortFunc(units, func(a, b int32) int {
		return cmp.Compare(s.idx.units[a].Page, s.idx.units[b].Page)
	})
}

// readBatch makes the given units' pages the batch, replacing what it held,
// reading them in physical order and streaming through short gaps. The unit
// slice is reordered (sorted by page).
func (s *side) readBatch(units []int32) error {
	s.sortByPage(units)
	s.runs = s.runs[:0]
	var last storage.PageID
	haveLast := false
	for _, ui := range units {
		p := s.idx.units[ui].Page
		if haveLast && p > last && p-last <= s.readThroughGap {
			for q := last + 1; q < p; q++ {
				// Touched, not used: counted like any other read, and
				// not part of the batch.
				if _, err := s.st.View(q); err != nil {
					return err
				}
			}
		}
		if err := s.readPage(p); err != nil {
			return err
		}
		last = p
		haveLast = true
	}
	return nil
}

// debugTrace, when set by tests, receives a trace of exploration decisions.
var debugTrace func(format string, args ...interface{})

func tracef(format string, args ...interface{}) {
	if debugTrace != nil {
		debugTrace(format, args...)
	}
}

// joinRun holds the state of one adaptive exploration (Algorithm 2).
type joinRun struct {
	cfg     JoinConfig
	sides   [2]*side
	model   *costModel
	stats   JoinStats
	emit    func(a, b geom.Element)
	maxWalk [2]int // per side, a defensive bound on one walk over its graphs: 4x its descriptors
	// stop is the join's fleet-wide abort flag: a worker that fails raises
	// it and the others bail at their next pivot instead of finishing whole
	// chunks after the join is already lost.
	stop *atomic.Bool
}

// newJoinRun assembles one worker's state: sides reading through the worker's
// private readers stA/stB, a cost model publishing to the join's calibration,
// the join's abort flag, read-through gaps and walk bounds. The caller
// releases the run when it is done with it.
func newJoinRun(ia, ib *Index, cfg JoinConfig, emit func(a, b geom.Element), stA, stB storage.Store, calib *sharedCalib, stop *atomic.Bool) *joinRun {
	r := &joinRun{cfg: cfg, emit: emit, stop: stop}
	r.sides[0] = acquireSide(ia, stA, true)
	r.sides[1] = acquireSide(ib, stB, false)
	r.model = newCostModel(cfg, ia, ib, calib)
	for i, s := range r.sides {
		s.readThroughGap = storage.PageID(r.model.seek / (pageTransferSeconds(s.idx.st.PageSize()) + 1e-12))
		if s.readThroughGap > 64 {
			s.readThroughGap = 64
		}
		r.maxWalk[i] = 4 * (len(s.idx.units) + len(s.idx.nodes))
	}
	return r
}

// release hands the run's sides back to their indexes' free lists.
func (r *joinRun) release() {
	r.sides[0].release()
	r.sides[1].release()
}

// aborted reports whether the run should stop before its next pivot: the
// fleet's failure flag or the caller's cooperative Stop.
func (r *joinRun) aborted() bool {
	return r.stop.Load() || (r.cfg.Stop != nil && r.cfg.Stop.Load())
}

// loop drives the pivot loop of Algorithm 2 until either side's unchecked
// universe is exhausted, following role switches as they happen.
func (r *joinRun) loop(g, f int) error {
	for r.sides[g].remaining > 0 && r.sides[f].remaining > 0 {
		if r.aborted() {
			return nil
		}
		pn := r.sides[g].nextUnchecked()
		switched, err := r.processPivot(g, f, pn)
		if err != nil {
			return err
		}
		if switched {
			g, f = f, g
		}
	}
	return nil
}

// Join executes TRANSFORMERS' adaptive exploration between two indexed
// datasets, emitting every intersecting element pair (a from ia, b from ib)
// exactly once, regardless of internal role switching. With
// cfg.Parallelism > 1 the pivots are processed by concurrent workers and
// emit may be called from multiple goroutines; the result pair set is
// identical to the sequential join's.
//
// Every worker count runs the same driver: the guide's nodeOrder is cut into
// one contiguous Hilbert-order chunk per worker (chunkGuide), and each worker
// is a complete sequential join run — private sides, walkers, buffers,
// buffer pools and store readers — whose guide universe is its chunk (see
// side.restrictTo for why the union of the workers' results is exactly the
// sequential pair set). A single chunk is the whole universe and runs inline,
// the paper-faithful sequential execution. The only state the workers share
// is the atomically published cost-model calibration, so no lock sits on the
// page-read or pivot-processing hot paths. Reading through private views
// also makes any number of joins and range queries over the same indexes
// safe to run at once.
func Join(ia, ib *Index, cfg JoinConfig, emit func(a, b geom.Element)) (JoinStats, error) {
	if ia.size == 0 || ib.size == 0 || len(ia.nodes) == 0 || len(ib.nodes) == 0 {
		return JoinStats{}, nil
	}
	if cfg.Parallelism < 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	g, f := 0, 1
	if cfg.GuideB {
		g, f = 1, 0
	}
	chunks := chunkGuide([2]*Index{ia, ib}[g], max(cfg.Parallelism, 1))
	workers := len(chunks)

	readersA := storage.OpenReaders(ia.st, workers)
	readersB := readersA
	sharedStore := ia.st == ib.st
	if !sharedStore {
		readersB = storage.OpenReaders(ib.st, workers)
	}

	var stop atomic.Bool
	calib := newSharedCalib(cfg)
	runs := make([]*joinRun, workers)
	for i := range runs {
		runs[i] = newJoinRun(ia, ib, cfg, emit, readersA[i], readersB[i], calib, &stop)
		if workers > 1 {
			runs[i].sides[g].restrictTo(chunks[i][0], chunks[i][1])
		}
	}
	errs := make([]error, workers)
	work := func(i int) {
		if err := runs[i].loop(g, f); err != nil {
			errs[i] = err
			stop.Store(true)
		}
	}
	start := time.Now()
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(i)
			}()
		}
		wg.Wait()
	}

	// Released last worker first, so the next join's worker i takes the
	// sides this one's worker i held.
	for i := len(runs) - 1; i >= 0; i-- {
		runs[i].release()
	}
	var stats JoinStats
	for i, r := range runs {
		stats = mergeStats(stats, r.stats)
		stats.IO = stats.IO.Add(readersA[i].Stats())
		if !sharedStore {
			stats.IO = stats.IO.Add(readersB[i].Stats())
		}
	}
	// Wall is elapsed time of the whole join; with several workers
	// ExploreWall and JoinWall sum their shares and may exceed it (CPU-time
	// semantics).
	stats.Wall = time.Since(start)
	stats.TSUFinal = calib.tsu.Load()
	stats.TSOFinal = calib.tso.Load()
	stats.CfltFinal = calib.cflt.Load()
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// pageTransferSeconds is the modeled transfer time of one page of the given
// size on the default disk.
func pageTransferSeconds(pageSize int) float64 {
	return float64(pageSize) / storage.DefaultDiskModel().TransferBytesPerSec
}

// emitOriented reports one result pair found with the guide on side g,
// restoring the caller's A/B orientation.
func (r *joinRun) emitOriented(g int, guideElem, followerElem geom.Element) {
	r.stats.Results++
	if r.sides[g].isA {
		r.emit(guideElem, followerElem)
	} else {
		r.emit(followerElem, guideElem)
	}
}

// bookWalk accounts for one adaptive walk begun at t0: its steps are walk steps
// and metadata comparisons, its time is exploration, and the cost model's Tae
// measures both.
func (r *joinRun) bookWalk(t0 time.Time, res walkResult) walkResult {
	dt := time.Since(t0)
	r.stats.WalkSteps += res.steps
	r.stats.MetaComparisons += res.steps
	r.stats.ExploreWall += dt
	r.model.observeWalk(res.steps, dt)
	return res
}

// crawlUnits crawls the follower's unit graph from found, collecting in F.cand
// the units of unchecked nodes whose page can intersect target, and returns
// how many of them the current pivot's read tally had not seen.
func (r *joinRun) crawlUnits(f int, found int32, target geom.Box) (firstReads int) {
	F := r.sides[f]
	t0 := time.Now()
	F.cand = F.cand[:0]
	visited := F.unitWalker.crawl(unitGraph{F.idx}, found, target, func(fu int32) {
		fd := &F.idx.units[fu]
		r.stats.MetaComparisons++
		if F.checked[fd.Node] {
			return // every pair with that node was emitted when it was the pivot
		}
		if fd.PageMBB.Intersects(target) {
			F.cand = append(F.cand, fu)
		}
	})
	r.stats.MetaComparisons += visited
	for _, fu := range F.cand {
		if F.tallyRead(fu) {
			firstReads++
		}
	}
	r.stats.ExploreWall += time.Since(t0)
	return firstReads
}

// joinBatches grid-joins the element batches the two sides hold and books the
// comparisons and the time since t0 — the reads that filled the batches
// included — as join cost.
func (r *joinRun) joinBatches(g, f int, t0 time.Time) {
	G, F := r.sides[g], r.sides[f]
	comps := G.grid.Join(G.batch(), F.batch(), func(ge, fe geom.Element) {
		r.emitOriented(g, ge, fe)
	})
	dt := time.Since(t0)
	r.stats.Comparisons += comps
	r.stats.JoinWall += dt
	r.model.observeJoin(comps, dt)
}

// processPivot handles one pivot space node of the guide: it walks the
// follower to the pivot, applies transformations (§VI), and joins. It
// returns switched=true when a role transformation made the old follower
// the new guide.
func (r *joinRun) processPivot(g, f int, pn int32) (switched bool, err error) {
	G, F := r.sides[g], r.sides[f]
	pivot := &G.idx.nodes[pn]
	target := pivot.PageMBB

	if F.scoped && !target.Intersects(F.scopeBox) {
		// The follower's unchecked universe (this worker's chunk, after a
		// role switch) lies entirely outside the pivot's data bound: no
		// pair is possible, and pairs with checked follower nodes belong to
		// the workers owning them.
		r.stats.MetaComparisons++
		G.markChecked(pn)
		return false, nil
	}

	t0 := time.Now()
	wres := r.bookWalk(t0, F.nodeWalker.walk(nodeGraph{F.idx}, F.nodeStart(target), target, r.maxWalk[f]))
	tracef("pivot side=%d node=%d found=%d", g, pn, wres.found)
	F.lastNode = wres.nearest
	if wres.found < 0 {
		// No follower Nav box intersects the pivot, so no follower element
		// can: the pivot joins nothing.
		G.markChecked(pn)
		return false, nil
	}

	if !r.cfg.DisableTransforms {
		fn := &F.idx.nodes[wres.found]
		ratio := densityRatio(pivot.PageMBB.Volume(), pivot.Count, fn.PageMBB.Volume(), fn.Count)
		if ratio <= 1/r.model.curTSU() && !F.checked[wres.found] {
			// Role transformation (Eq. 5): the follower is locally sparser;
			// it becomes the guide and the node found near the old pivot
			// becomes the new pivot, immediately processed at the finer
			// layout (§VI-A: "This decision is followed by data layout
			// transformation"). A found node that is already checked has
			// already joined everything — switching onto it would redo (and
			// duplicate) its work, so the switch only fires on unchecked
			// nodes.
			r.stats.RoleSwitches++
			tracef("ROLE SWITCH at side=%d node=%d -> new pivot side=%d node=%d", g, pn, f, wres.found)
			if err := r.processNodeAtUnitLevel(f, g, wres.found); err != nil {
				return false, err
			}
			F.markChecked(wres.found)
			return true, nil
		}
		if ratio >= r.model.curTSU() {
			// Data layout transformation (Eq. 4): split the pivot node
			// into space units.
			r.stats.NodeSplits++
			tracef("NODE SPLIT side=%d node=%d", g, pn)
			err := r.processNodeAtUnitLevel(g, f, pn)
			G.markChecked(pn)
			return false, err
		}
	}
	tracef("NODE LEVEL side=%d node=%d", g, pn)
	err = r.processNodeLevel(g, f, pn, wres.found)
	G.markChecked(pn)
	return false, err
}

// nodeLevelCandidates computes exactly the unit sets a node-level (coarse)
// processing of pivot pn against follower F reads: the crawl's candidate
// units (page MBB intersecting the pivot, unchecked parent nodes only)
// filtered by the guide/follower page-MBB join (§V "In-memory Join").
func (r *joinRun) nodeLevelCandidates(g, f int, pn, found int32) (keptG, keptF []int32) {
	G, F := r.sides[g], r.sides[f]
	pivot := &G.idx.nodes[pn]
	target := pivot.PageMBB

	t0 := time.Now()
	F.cand = F.cand[:0]
	visited := F.nodeWalker.crawl(nodeGraph{F.idx}, found, target, func(nd int32) {
		if F.checked[nd] {
			return // every pair with nd was emitted when nd was the pivot
		}
		n := &F.idx.nodes[nd]
		r.stats.MetaComparisons++
		if !n.PageMBB.Intersects(pivot.PageMBB) {
			return
		}
		for _, ui := range n.Units {
			r.stats.MetaComparisons++
			if F.idx.units[ui].PageMBB.Intersects(pivot.PageMBB) {
				F.cand = append(F.cand, ui)
			}
		}
	})
	r.stats.MetaComparisons += visited

	// Page-MBB filter between the guide's and the follower's candidate
	// units: only pages that intersect a page of the other side are read.
	G.loadFilter(pivot.Units)
	F.loadFilter(F.cand)
	r.stats.MetaComparisons += sweep.Join(G.refs, F.refs, func(a, b geom.Element) {
		G.keep[a.ID] = true
		F.keep[b.ID] = true
	})
	keptG, keptF = G.filtered(pivot.Units), F.filtered(F.cand)
	r.stats.ExploreWall += time.Since(t0)
	return keptG, keptF
}

// loadFilter readies the side's half of the page-MBB filter over units: refs
// holds their page MBBs under their positions as IDs, keep is all false.
func (s *side) loadFilter(units []int32) {
	s.refs = s.refs[:0]
	for i, ui := range units {
		s.refs = append(s.refs, geom.Element{ID: uint64(i), Box: s.idx.units[ui].PageMBB})
	}
	s.keep = slices.Grow(s.keep[:0], len(units))[:len(units)]
	clear(s.keep)
}

// filtered returns, in s.kept, the units whose position the filter marked.
func (s *side) filtered(units []int32) []int32 {
	s.kept = s.kept[:0]
	for i, ui := range units {
		if s.keep[i] {
			s.kept = append(s.kept, ui)
		}
	}
	return s.kept
}

// processNodeLevel joins a pivot node against the follower at the coarse
// layout: crawl the follower's nodes around the intersection record, filter
// both candidate unit sets by joining their page MBBs (§V "In-memory Join"),
// then grid-join the surviving pages.
func (r *joinRun) processNodeLevel(g, f int, pn, found int32) error {
	G, F := r.sides[g], r.sides[f]
	keptG, keptF := r.nodeLevelCandidates(g, f, pn, found)

	// Read the surviving pages of both sides in physical page order,
	// streaming through short gaps, so the runs stay sequential.
	tj := time.Now()
	if err := G.readBatch(keptG); err != nil {
		return err
	}
	if err := F.readBatch(keptF); err != nil {
		return err
	}
	r.joinBatches(g, f, tj)
	return nil
}

// processNodeAtUnitLevel joins one pivot node at space-unit granularity
// (§VI-B, levels 1/1): every unit of the pivot node individually walks and
// crawls the follower's unit graph, escalating to element granularity when
// the contrast is extreme (Eq. 8).
func (r *joinRun) processNodeAtUnitLevel(g, f int, pn int32) error {
	G, F := r.sides[g], r.sides[f]
	pivot := &G.idx.nodes[pn]
	target := pivot.PageMBB

	// Position the follower's unit walk near the pivot node first.
	t0 := time.Now()
	nres := r.bookWalk(t0, F.nodeWalker.walk(nodeGraph{F.idx}, F.nodeStart(target), target, r.maxWalk[f]))
	F.lastNode = nres.nearest
	if nres.found < 0 {
		return nil
	}
	cur := F.idx.nodes[nres.found].Units[0]

	// cflt baseline: the follower pages a node-level (coarse) processing of
	// this pivot would read — the crawl candidates surviving the page-MBB
	// filter. The achieved filter fraction is measured against it after the
	// fine-grained processing below.
	_, wouldF := r.nodeLevelCandidates(g, f, pn, nres.found)
	wouldRead := len(wouldF)
	F.beginReadTally()
	distinctRead := 0
	// The delta is taken on the side's own store view, the LRU over this
	// worker's private reader — the only place the worker's reads are
	// counted, and safe to read without synchronization.
	randBefore := F.st.Stats().RandReads

	for _, ui := range pivot.Units {
		if r.cfg.Stop != nil && r.cfg.Stop.Load() {
			break // abort between pivot units, not just between pivots
		}
		u := &G.idx.units[ui]
		utarget := u.PageMBB

		tw := time.Now()
		wres := r.bookWalk(tw, F.unitWalker.walk(unitGraph{F.idx}, cur, utarget, r.maxWalk[f]))
		cur = wres.nearest
		if wres.found < 0 {
			tracef("unit walk FAILED side=%d unit=%d", g, ui)
			continue
		}

		if !r.cfg.DisableTransforms {
			fu := &F.idx.units[wres.found]
			ratio := densityRatio(u.PageMBB.Volume(), u.Count, fu.PageMBB.Volume(), fu.Count)
			if ratio >= r.model.curTSO() {
				// Finest-grained transformation (Eq. 8): split the unit
				// into its spatial elements.
				r.stats.UnitSplits++
				tracef("UNIT SPLIT side=%d unit=%d foundF=%d", g, ui, wres.found)
				read, err := r.processUnitAtElementLevel(g, f, ui, wres.found)
				if err != nil {
					return err
				}
				distinctRead += read
				continue
			}
		}

		// Unit-level crawl and join: collect follower units whose pages can
		// intersect the pivot unit, read them, grid-join.
		distinctRead += r.crawlUnits(f, wres.found, utarget)
		if len(F.cand) == 0 {
			continue
		}

		tj := time.Now()
		if err := G.readUnit(ui); err != nil {
			return err
		}
		if err := F.readBatch(F.cand); err != nil {
			return err
		}
		r.joinBatches(g, f, tj)
	}
	// Feed the realized costs back into the cost model (§VI-C): the filter
	// fraction (the fine-grained layout avoided reading
	// wouldRead-distinctRead of the pages coarse processing would touch) and
	// the random accesses the finer batches paid for it.
	r.model.observeFineIO(F.st.Stats().RandReads-randBefore, len(pivot.Units))
	r.model.observeFilter(wouldRead-distinctRead, wouldRead)
	return nil
}

// processUnitAtElementLevel joins one pivot space unit at element
// granularity (level 2/1): each element of the unit individually navigates
// the follower's unit graph, as GIPSY does for its entire guide dataset. It
// returns the distinct candidate pages read (for cflt accounting; the
// caller's read tally must be active).
func (r *joinRun) processUnitAtElementLevel(g, f int, ui, startU int32) (distinctRead int, err error) {
	G, F := r.sides[g], r.sides[f]

	tj := time.Now()
	if err := G.readUnit(ui); err != nil {
		return 0, err
	}
	r.stats.JoinWall += time.Since(tj)

	cur := startU
	for _, e := range G.runs[0] { // readUnit read one page
		e.Box.Grow(G.idx.grow)
		etarget := e.Box

		tw := time.Now()
		wres := r.bookWalk(tw, F.unitWalker.walk(unitGraph{F.idx}, cur, etarget, r.maxWalk[f]))
		cur = wres.nearest
		if wres.found < 0 {
			continue
		}
		distinctRead += r.crawlUnits(f, wres.found, etarget)

		te := time.Now()
		if err := F.readBatch(F.cand); err != nil {
			return distinctRead, err
		}
		var comps uint64
		for _, run := range F.runs {
			for _, fe := range run {
				comps++
				fe.Box.Grow(F.idx.grow)
				if fe.Box.Intersects(e.Box) {
					r.emitOriented(g, e, fe)
				}
			}
		}
		dt := time.Since(te)
		r.stats.Comparisons += comps
		r.stats.JoinWall += dt
		r.model.observeJoin(comps, dt)
	}
	return distinctRead, nil
}
