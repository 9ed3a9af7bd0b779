package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"cloudmc/internal/addrmap"
	"cloudmc/internal/core"
	"cloudmc/internal/sched"
	"cloudmc/internal/workload"
)

// Config scales a study run.
type Config struct {
	// MeasureCycles and WarmupCycles set the timed window per
	// simulation.
	MeasureCycles uint64
	WarmupCycles  uint64
	// WarmupInstrPerCore sets functional warming (0 = automatic).
	WarmupInstrPerCore uint64
	// Seed feeds every simulation.
	Seed uint64
	// Parallelism bounds concurrent simulations (0 = NumCPU).
	Parallelism int
	// Workloads defaults to workload.All().
	Workloads []workload.Profile
	// MaxSlowdownSLO configures the QoS scheduler's per-tenant
	// slowdown budget in mix studies (0 = the scheduler's default).
	MaxSlowdownSLO float64
	// Instrument, when non-nil, is called once per actual simulation
	// (cache hits excluded) after the System is built and before it
	// runs — the hook the CLIs use to attach obs recorders and command
	// traces per cell. label identifies the cell (workload, scheduler,
	// page policy, mapping, channels, isolation). Calls can come from
	// concurrent study goroutines, but each sys is exclusively owned
	// by its cell until Run returns.
	Instrument func(label string, sys *core.System)
	// Progress, when non-nil, receives a start and a finish event for
	// every cell of a parallel study wave. Invocations are serialized
	// by the study; wall-clock concerns (cell timing, rendering) are
	// the cmd/ layer's, keeping this package deterministic.
	Progress func(ev CellEvent)
}

// CellEvent is one study-cell lifecycle notification delivered to
// Config.Progress.
type CellEvent struct {
	// Label identifies the cell, in runKey order (workload/scheduler/
	// page/mapping/channels[...]); mix cells use "mix:<name>".
	Label string
	// Index is the cell's position in its wave (stable between the
	// start and finish events of one cell); Total the wave size.
	Index, Total int
	// Start distinguishes the begin event from the finish event.
	Start bool
	// Done counts cells finished so far, including this one on finish
	// events.
	Done int
}

// Quick returns a configuration sized for tests and benchmarks
// (hundreds of milliseconds per simulation).
func Quick() Config {
	return Config{
		MeasureCycles: 150_000,
		WarmupCycles:  30_000,
		Seed:          1,
	}
}

// Standard returns the configuration used for EXPERIMENTS.md numbers.
func Standard() Config {
	return Config{
		MeasureCycles: 600_000,
		WarmupCycles:  80_000,
		Seed:          1,
	}
}

func (c Config) workloads() []workload.Profile {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return workload.All()
}

// runKey identifies one simulation in the study cache. Figures share
// runs (the FR-FCFS/OAPM/1-channel baseline appears in most grids), so
// the Study memoizes by key. Colocation cells reuse the same cache:
// mix runs key on the mix name (workload = "mix:<name>"), and solo
// fairness baselines key on (acronym, cores), letting every mix that
// contains the same tenant share one baseline simulation.
type runKey struct {
	workload  string
	cores     int // tenant core allocation; 0 = the profile's default
	scheduler sched.Kind
	page      string
	mapping   addrmap.Scheme
	channels  int
	// isolation is the Isolation axis value (String form) for mix
	// runs; solo baselines leave it empty — a tenant's "alone on its
	// cores" baseline owns the whole machine, so every isolation cell
	// of a mix shares one baseline simulation.
	isolation string
}

// label renders the key as the cell identifier passed to
// Config.Instrument and Config.Progress (and used as the obs run tag
// by the CLIs). It contains no commas or quotes, so it embeds safely
// in the obs CSV/JSONL formats.
func (k runKey) label() string {
	l := fmt.Sprintf("%s/%s/%s/%s/ch%d", k.workload, k.scheduler, k.page, k.mapping, k.channels)
	if k.cores > 0 {
		l += fmt.Sprintf("/%dc", k.cores)
	}
	if k.isolation != "" && k.isolation != "none" {
		l += "/" + k.isolation
	}
	return l
}

// Study runs and caches the simulation grid behind the figures.
type Study struct {
	cfg Config

	mu       sync.Mutex
	cache    map[runKey]core.Metrics
	inflight map[runKey]chan struct{}
	// simulations counts actual simulator runs (not cache hits); the
	// single-flight test uses it to prove each cell runs exactly once.
	simulations uint64
}

// NewStudy returns an empty study.
func NewStudy(cfg Config) *Study {
	return &Study{
		cfg:      cfg,
		cache:    make(map[runKey]core.Metrics),
		inflight: make(map[runKey]chan struct{}),
	}
}

// Simulations returns the number of actual simulator runs so far
// (cache hits excluded).
func (s *Study) Simulations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simulations
}

// baseline describes the Table 2 configuration for one workload.
func (s *Study) systemConfig(p workload.Profile, k runKey) core.Config {
	cfg := core.DefaultConfig(p)
	s.applyStudyConfig(&cfg, k)
	return cfg
}

// applyStudyConfig overlays the study's scale and the cell's
// configuration axes onto a default system config.
func (s *Study) applyStudyConfig(cfg *core.Config, k runKey) {
	cfg.Scheduler = k.scheduler
	cfg.PagePolicy = k.page
	cfg.Mapping = k.mapping
	cfg.Channels = k.channels
	cfg.MeasureCycles = s.cfg.MeasureCycles
	cfg.WarmupCycles = s.cfg.WarmupCycles
	cfg.WarmupInstrPerCore = s.cfg.WarmupInstrPerCore
	cfg.Seed = s.cfg.Seed
	// The paper's ATLAS quantum (10M cycles) assumes multi-billion-
	// cycle samples; our compressed windows would never complete a
	// quantum. Scale the quantum so ~10 fit in the measurement window
	// and keep the starvation cap far above the uncontended memory
	// latency, preserving the long-deprioritization behaviour the
	// paper observes (§4.1.1).
	quantum := s.cfg.MeasureCycles / 10
	if quantum < 10_000 {
		quantum = 10_000
	}
	cfg.SchedOpts.ATLAS = sched.ATLASConfig{
		QuantumCycles:       quantum,
		Alpha:               0.875,
		StarvationThreshold: quantum / 8,
		ScanDepth:           2,
	}
	// The QoS scheduler monitors at the same compressed quantum; its
	// SLO comes from the study configuration.
	qos := sched.DefaultQoSConfig()
	qos.QuantumCycles = quantum
	qos.StarvationThreshold = quantum / 8
	if s.cfg.MaxSlowdownSLO > 0 {
		qos.MaxSlowdownSLO = s.cfg.MaxSlowdownSLO
	}
	cfg.SchedOpts.QoS = qos
}

func baselineKey(acr string) runKey {
	return runKey{
		workload:  acr,
		scheduler: sched.FRFCFS,
		page:      "OpenAdaptive",
		mapping:   addrmap.RoRaBaCoCh,
		channels:  1,
	}
}

// Run executes (or returns the cached metrics of) one cell. Figures
// share cells, and runAll executes cells concurrently, so Run
// single-flights per key: the first caller simulates while later
// callers for the same key wait on its completion instead of
// redundantly simulating the same configuration.
func (s *Study) Run(p workload.Profile, k runKey) core.Metrics {
	k.workload = p.Acronym
	return s.do(k, func() core.Metrics {
		sys, err := core.NewSystem(s.systemConfig(p, k))
		if err != nil {
			panic(fmt.Sprintf("experiment: %s: %v", p.Acronym, err))
		}
		s.instrument(k, sys)
		return sys.Run()
	})
}

// instrument invokes the configured per-simulation hook, if any.
func (s *Study) instrument(k runKey, sys *core.System) {
	if s.cfg.Instrument != nil {
		s.cfg.Instrument(k.label(), sys)
	}
}

// do memoizes and single-flights one cache cell around an arbitrary
// simulation closure; Run, RunSolo and RunMix all funnel through it.
func (s *Study) do(k runKey, sim func() core.Metrics) core.Metrics {
	s.mu.Lock()
	for {
		if m, ok := s.cache[k]; ok {
			s.mu.Unlock()
			return m
		}
		done, ok := s.inflight[k]
		if !ok {
			break
		}
		s.mu.Unlock()
		<-done
		s.mu.Lock()
	}
	done := make(chan struct{})
	s.inflight[k] = done
	s.simulations++
	s.mu.Unlock()
	// Release waiters even if the simulation panics; they will find no
	// cached entry and re-attempt (and typically re-panic) themselves.
	defer func() {
		s.mu.Lock()
		delete(s.inflight, k)
		s.mu.Unlock()
		close(done)
	}()

	m := sim()

	s.mu.Lock()
	s.cache[k] = m
	s.mu.Unlock()
	return m
}

// studyCell is one labeled unit of work in a parallel wave; the label
// feeds Config.Progress events.
type studyCell struct {
	label string
	run   func()
}

// cell builds a labeled solo-run cell.
func (s *Study) cell(p workload.Profile, key runKey) studyCell {
	key.workload = p.Acronym
	return studyCell{label: key.label(), run: func() { s.Run(p, key) }}
}

// runAll executes a set of cells in parallel and blocks until done,
// emitting serialized start/finish Progress events per cell.
func (s *Study) runAll(cells []studyCell) {
	par := s.cfg.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	total := len(cells)
	var progMu sync.Mutex
	done := 0
	emit := func(ev CellEvent) {
		if s.cfg.Progress == nil {
			return
		}
		progMu.Lock()
		defer progMu.Unlock()
		if !ev.Start {
			done++
		}
		ev.Done = done
		ev.Total = total
		s.cfg.Progress(ev)
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, cell := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c studyCell) {
			defer wg.Done()
			defer func() { <-sem }()
			emit(CellEvent{Label: c.label, Index: i, Start: true})
			c.run()
			emit(CellEvent{Label: c.label, Index: i})
		}(i, cell)
	}
	wg.Wait()
}

// schedulerGrid materializes the 12x5 scheduler study (Figures 1-7).
func (s *Study) schedulerGrid() {
	var cells []studyCell
	for _, p := range s.cfg.workloads() {
		for _, k := range sched.Kinds {
			key := baselineKey(p.Acronym)
			key.scheduler = k
			cells = append(cells, s.cell(p, key))
		}
	}
	s.runAll(cells)
}

// pageGrid materializes the 12x4 page-policy study (Figures 9-11).
func (s *Study) pageGrid() {
	var cells []studyCell
	for _, p := range s.cfg.workloads() {
		for _, page := range pagePolicies {
			key := baselineKey(p.Acronym)
			key.page = page
			cells = append(cells, s.cell(p, key))
		}
	}
	s.runAll(cells)
}

// channelGrid materializes the multi-channel/mapping study
// (Figures 12-14, Table 4): 1-channel baseline plus every mapping at
// 2 and 4 channels.
func (s *Study) channelGrid() {
	var cells []studyCell
	for _, p := range s.cfg.workloads() {
		cells = append(cells, s.cell(p, baselineKey(p.Acronym)))
		for _, ch := range []int{2, 4} {
			for _, sc := range addrmap.Schemes {
				key := baselineKey(p.Acronym)
				key.channels = ch
				key.mapping = sc
				cells = append(cells, s.cell(p, key))
			}
		}
	}
	s.runAll(cells)
}

var pagePolicies = []string{"OpenAdaptive", "CloseAdaptive", "RBPP", "ABPP"}

// categories orders the paper's average rows.
var categoryRows = []string{"Avg_SCO", "Avg_TRS", "Avg_DSP"}

// rowsWithAverages returns workload rows plus the category averages.
func (s *Study) rowsWithAverages() []string {
	rows := make([]string, 0, len(s.cfg.workloads())+3)
	for _, p := range s.cfg.workloads() {
		rows = append(rows, p.Acronym)
	}
	return append(rows, categoryRows...)
}

// fillAverages appends the per-category arithmetic means to a value
// matrix whose first len(workloads) rows are filled.
func (s *Study) fillAverages(vals [][]float64, cols int) [][]float64 {
	wls := s.cfg.workloads()
	for _, cat := range []workload.Category{workload.SCOW, workload.TRSW, workload.DSPW} {
		row := make([]float64, cols)
		for j := 0; j < cols; j++ {
			var sum float64
			var n int
			for i, p := range wls {
				if p.Category != cat {
					continue
				}
				if v := vals[i][j]; v == v {
					sum += v
					n++
				}
			}
			if n == 0 {
				row[j] = math.NaN()
			} else {
				row[j] = sum / float64(n)
			}
		}
		vals = append(vals, row)
	}
	return vals
}
