package core

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Default transformation thresholds (§VII-D2): the initial volume-ratio
// thresholds used until the first transformation has been executed and the
// runtime parameters (Tae, Tcomp, cflt) have been measured. tsu=8
// corresponds to one MBB edge being twice as long, tso=27 to three times.
const (
	DefaultTSU = 8
	DefaultTSO = 27
)

// Threshold clamping bounds: the paper's sensitivity experiment uses 1.5
// (OverFit, transforms constantly) and 1e6 (UnderFit, never transforms) as
// the extremes, so the calibrated threshold is kept inside them.
const (
	minThreshold = 1.5
	maxThreshold = 1e6
)

// costModel implements §VI-C: it measures Tae (cost per adaptive-exploration
// step), Tcomp (cost per element comparison) and cflt (the achieved filter
// fraction) at runtime, prices Tio from the disk model (the I/O cost the
// benchmark reports is the modeled disk cost, so the optimizer must price
// pages the same way), and re-derives the transformation thresholds
//
//	tsu = Tae / (cflt · (Tio + nSO·Tcomp))          (Eq. 4)
//	tso = nSO·Tae / (nSU·cflt · (Tio + nSO·Tcomp))  (Eq. 8)
//
// after transformations execute. Role switches use tsuRole = 1/tsu (Eq. 5).
type costModel struct {
	tsu, tso float64
	fixed    bool // keep the configured thresholds (OverFit/UnderFit runs)

	nSO float64 // average elements per space unit
	nSU float64 // average units per space node
	// tio prices one page of the reads splitting avoids. Coarse batches
	// stream (mostly sequentially), so the avoided cost per page is the
	// transfer cost, not a full random access.
	tio float64

	walkSteps uint64
	walks     uint64
	walkTime  time.Duration
	comps     uint64
	compTime  time.Duration
	seek      float64 // seconds per random access under the disk model
	cflt      float64 // exponential moving average of the filter fraction
	observed  bool    // a transformation has produced filter feedback
	// fineRandReads/fineUnits estimate the realized random accesses each
	// fine-grained (split) unit triggers — the I/O share of Tae.
	fineRandReads uint64
	fineUnits     uint64
	// shared, when non-nil, links this model to the other workers of a
	// parallel join: recalibrations publish the new thresholds, threshold
	// reads load the latest global value, and filter feedback folds into a
	// global cflt — so adaptation stays global even though measurement is
	// per worker. Nil for the sequential join, whose behavior is untouched.
	shared *sharedCalib
}

// atomicFloat64 is a float64 published through an atomic word.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat64) Load() float64   { return math.Float64frombits(a.bits.Load()) }

// sharedCalib is the cross-worker cost-model state of a parallel join. The
// thresholds and filter fraction are plain atomics: workers race to publish,
// every reader sees some recently calibrated value, and no lock is taken on
// the pivot-processing path. Threshold values only steer strategy (which
// granularity to join at), never correctness, so benign races here cannot
// change the result set.
type sharedCalib struct {
	tsu, tso, cflt atomicFloat64
}

// newSharedCalib seeds the shared state from a freshly initialized model.
func newSharedCalib(m *costModel) *sharedCalib {
	s := &sharedCalib{}
	s.tsu.Store(m.tsu)
	s.tso.Store(m.tso)
	s.cflt.Store(m.cflt)
	return s
}

// curTSU returns the node-split threshold currently in force: the globally
// published value in a parallel join, the local one otherwise.
func (m *costModel) curTSU() float64 {
	if m.shared != nil {
		return m.shared.tsu.Load()
	}
	return m.tsu
}

// curTSO returns the unit-split threshold currently in force.
func (m *costModel) curTSO() float64 {
	if m.shared != nil {
		return m.shared.tso.Load()
	}
	return m.tso
}

func newCostModel(cfg JoinConfig, a, b *Index) *costModel {
	m := &costModel{
		tsu:   cfg.TSU,
		tso:   cfg.TSO,
		fixed: cfg.FixedThresholds,
		cflt:  0.5,
	}
	if m.tsu <= 0 {
		m.tsu = DefaultTSU
	}
	if m.tso <= 0 {
		m.tso = DefaultTSO
	}
	units := a.Units() + b.Units()
	if units > 0 {
		m.nSO = float64(a.Len()+b.Len()) / float64(units)
	}
	nodes := a.Nodes() + b.Nodes()
	if nodes > 0 {
		m.nSU = float64(units) / float64(nodes)
	}
	disk := storage.DefaultDiskModel()
	pageRead := storage.Stats{Reads: 1, SeqReads: 1, BytesRead: uint64(a.st.PageSize())}
	m.tio = disk.ReadTime(pageRead).Seconds()
	m.seek = disk.Seek.Seconds()
	return m
}

// observeWalk feeds exploration measurements (Tae numerator).
func (m *costModel) observeWalk(steps uint64, d time.Duration) {
	m.walkSteps += steps
	m.walks++
	m.walkTime += d
}

// observeJoin feeds comparison measurements (Tcomp).
func (m *costModel) observeJoin(comps uint64, d time.Duration) {
	m.comps += comps
	m.compTime += d
}

// observeFineIO feeds the realized random reads of one split pivot's
// fine-grained processing, attributing them to the units processed.
func (m *costModel) observeFineIO(randReads uint64, units int) {
	if units <= 0 {
		return
	}
	m.fineRandReads += randReads
	m.fineUnits += uint64(units)
}

// observeFilter feeds the achieved filter fraction of a transformation:
// skipped of total candidate units were not read thanks to the finer
// granularity.
func (m *costModel) observeFilter(skipped, total int) {
	if total <= 0 {
		return
	}
	frac := float64(skipped) / float64(total)
	if frac < 0.002 {
		frac = 0.002 // keep the threshold finite when filtering fails
	}
	const alpha = 0.2
	base := m.cflt
	if m.shared != nil {
		// Fold into the global EMA so every worker's filter feedback shapes
		// one shared estimate. The read-modify-write is not atomic as a unit;
		// a lost update just weights the EMA slightly differently, which the
		// moving average absorbs.
		base = m.shared.cflt.Load()
	}
	m.cflt = (1-alpha)*base + alpha*frac
	if m.shared != nil {
		m.shared.cflt.Store(m.cflt)
	}
	m.observed = true
	m.recalibrate()
}

// recalibrate re-derives tsu and tso per Eqs. 4 and 8 once runtime
// measurements exist (§VI-C: defaults are used until the first
// transformation has executed).
//
// Tae in Eq. 1 is the cost of exploring one split-off unit. In the paper's
// system the descriptors are disk-resident, so that cost inherently includes
// the I/O of steering a finer-grained exploration; here the descriptors are
// memory-resident, so Tae is the measured wall time of one directed walk
// plus the *realized* random-access cost per split unit (small scattered
// batches pay several seeks each; the ratio is measured, not assumed). The
// resulting dynamics: high observed filtering (skewed data) drives the
// thresholds down towards OverFit, fruitless filtering on smooth data
// drives them up towards UnderFit — exactly the adaptivity §VII-D2
// evaluates.
func (m *costModel) recalibrate() {
	if m.fixed || !m.observed || m.walks == 0 || m.comps == 0 {
		return
	}
	seeksPerUnit := 1.0
	if m.fineUnits > 0 {
		seeksPerUnit = float64(m.fineRandReads) / float64(m.fineUnits)
	}
	tae := m.walkTime.Seconds()/float64(m.walks) + m.seek*seeksPerUnit
	tcomp := m.compTime.Seconds() / float64(m.comps)
	denom := m.cflt * (m.tio + m.nSO*tcomp)
	if denom <= 0 {
		return
	}
	m.tsu = clampThreshold(tae / denom)
	if m.nSU > 0 {
		m.tso = clampThreshold(m.tsu * m.nSO / m.nSU)
	}
	if m.shared != nil {
		m.shared.tsu.Store(m.tsu)
		m.shared.tso.Store(m.tso)
	}
}

func clampThreshold(t float64) float64 {
	if t < minThreshold {
		return minThreshold
	}
	if t > maxThreshold {
		return maxThreshold
	}
	return t
}

// densityRatio returns the guide/follower sparseness ratio of §VI-A
// generalized to partially filled partitions: the paper compares volumes
// Vg/Vf "considering that both datasets ... have the same number of elements
// in the corresponding space units/nodes"; when a unit or node is not full
// (small datasets, dataset edges) that assumption fails, so the comparison
// uses volume per element — exactly Vg/Vf when the counts are equal.
// Degenerate volumes are clamped so single-point MBBs do not divide by zero.
func densityRatio(vg float64, cg int32, vf float64, cf int32) float64 {
	const eps = 1e-12
	if cg < 1 {
		cg = 1
	}
	if cf < 1 {
		cf = 1
	}
	g := vg / float64(cg)
	f := vf / float64(cf)
	if g < eps {
		g = eps
	}
	if f < eps {
		f = eps
	}
	return g / f
}
