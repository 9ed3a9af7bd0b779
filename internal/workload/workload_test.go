package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllProfilesValidate(t *testing.T) {
	if len(All()) != 12 {
		t.Fatalf("expected 12 workloads, got %d", len(All()))
	}
	for _, p := range append(All(), MemoryHog()) {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Acronym, err)
		}
	}
}

func TestCategoriesMatchTable1(t *testing.T) {
	want := map[string]Category{
		"DS": SCOW, "MR": SCOW, "SS": SCOW, "WF": SCOW, "WS": SCOW, "MS": SCOW,
		"WSPEC99": TRSW, "TPC-C1": TRSW, "TPC-C2": TRSW,
		"TPCH-Q2": DSPW, "TPCH-Q6": DSPW, "TPCH-Q17": DSPW,
	}
	for _, p := range All() {
		if p.Category != want[p.Acronym] {
			t.Errorf("%s: category %v, want %v", p.Acronym, p.Category, want[p.Acronym])
		}
	}
	if len(ByCategory(SCOW)) != 6 || len(ByCategory(TRSW)) != 3 || len(ByCategory(DSPW)) != 3 {
		t.Error("category partition sizes wrong")
	}
}

func TestWebFrontendUsesEightCores(t *testing.T) {
	// Paper §3.2: "The Web Frontend benchmark uses only 8-cores".
	p, err := ByAcronym("WF")
	if err != nil {
		t.Fatal(err)
	}
	if p.Cores != 8 {
		t.Fatalf("WF cores = %d, want 8", p.Cores)
	}
	if !p.IO.Enabled || !p.IO.ScalesWithChannels {
		t.Fatal("WF must carry channel-scaled IO traffic (paper §4.3)")
	}
}

func TestByAcronymUnknown(t *testing.T) {
	if _, err := ByAcronym("NOPE"); err == nil {
		t.Fatal("unknown acronym accepted")
	}
}

// checkMixture reports every way p's derived mixture is inconsistent:
// a probability that is not finite or is negative, a burst shorter than
// one block, a miss mass other than TargetMPKI/1000, or a total
// probability of 1 or more.
func checkMixture(t *testing.T, p Profile) {
	t.Helper()
	d := p.Derived()
	for _, x := range []float64{d.PCold, d.PBurstStart, d.PHot} {
		if !(x >= 0) || math.IsInf(x, 1) {
			t.Errorf("%s: probabilities not finite and >= 0: %+v", p.Acronym, d)
			break
		}
	}
	if !(d.BurstLen >= 1) || math.IsInf(d.BurstLen, 1) {
		t.Errorf("%s: burst length %v not finite and >= 1", p.Acronym, d.BurstLen)
	}
	total := d.PCold + d.PBurstStart*d.BurstLen
	missTarget := p.TargetMPKI / 1000
	if !(math.Abs(total-missTarget) <= 1e-9) {
		t.Errorf("%s: miss rate %v, want %v", p.Acronym, total, missTarget)
	}
	if sum := d.PCold + d.PBurstStart + d.PHot; !(sum < 1) {
		t.Errorf("%s: probability mass %v >= 1", p.Acronym, sum)
	}
}

func TestDerivedMixtureIsConsistent(t *testing.T) {
	for _, p := range All() {
		checkMixture(t, p)
	}
}

// FuzzDerivedMixture mutates DataServing's mixture targets and
// calibration, and checks the mixture of every profile Validate
// accepts. The seed corpus holds calibrations Validate once let
// through although Derived turned them into NaN probabilities.
func FuzzDerivedMixture(f *testing.F) {
	ds := DataServing()
	f.Add(ds.TargetRowHit, ds.TargetSingleAccess, ds.TargetMPKI, ds.HitCalib, ds.AccCalib)
	f.Add(0.0, ds.TargetSingleAccess, ds.TargetMPKI, math.NaN(), ds.AccCalib)
	f.Add(0.0, ds.TargetSingleAccess, ds.TargetMPKI, math.Inf(1), ds.AccCalib)
	f.Fuzz(func(t *testing.T, rowHit, single, mpki, hitCalib, accCalib float64) {
		p := DataServing()
		p.TargetRowHit, p.TargetSingleAccess, p.TargetMPKI = rowHit, single, mpki
		p.HitCalib, p.AccCalib = hitCalib, accCalib
		if p.Validate() != nil {
			return
		}
		checkMixture(t, p)
	})
}

func TestGeneratorDeterminism(t *testing.T) {
	p := DataServing()
	layout := NewLayout(p)
	a := NewGenerator(p, layout, 3, 42)
	b := NewGenerator(p, layout, 3, 42)
	for i := 0; i < 10_000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at op %d", i)
		}
	}
}

func TestGeneratorsDecorrelatedAcrossCores(t *testing.T) {
	p := DataServing()
	layout := NewLayout(p)
	a := NewGenerator(p, layout, 0, 42)
	b := NewGenerator(p, layout, 1, 42)
	same := 0
	for i := 0; i < 5000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	// Non-memory ops collide trivially; memory ops should not. With
	// ~70% non-mem ops, anything above 95% identical means the streams
	// are correlated.
	if same > 4750 {
		t.Fatalf("cores produce near-identical streams: %d/5000", same)
	}
}

func TestGeneratorMemRefRateMatchesProfile(t *testing.T) {
	p := DataServing()
	layout := NewLayout(p)
	g := NewGenerator(p, layout, 0, 7)
	const n = 400_000
	var mem, stores int
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Kind != OpNonMem {
			mem++
			if op.Kind == OpStore {
				stores++
			}
		}
	}
	// Hot+cold+stream mem refs per instruction. Burst gaps displace
	// some memory references, so allow a modest tolerance band.
	gotPerKI := 1000 * float64(mem) / n
	if gotPerKI < 0.5*p.MemRefsPerKiloInstr || gotPerKI > 1.2*p.MemRefsPerKiloInstr {
		t.Fatalf("mem refs per KI = %f, profile %f", gotPerKI, p.MemRefsPerKiloInstr)
	}
	if stores == 0 || stores == mem {
		t.Fatal("store mix degenerate")
	}
}

func TestGeneratorAddressesInLayoutBounds(t *testing.T) {
	f := func(seed uint64) bool {
		p := TPCHQ6()
		layout := NewLayout(p)
		g := NewGenerator(p, layout, int(seed%16), seed)
		for i := 0; i < 20_000; i++ {
			op := g.Next()
			if op.Kind == OpNonMem {
				continue
			}
			if op.Addr >= layout.Limit {
				return false
			}
			if op.Addr%64 != 0 {
				return false // must be block aligned
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorBurstsAreSequential(t *testing.T) {
	p := MediaStreaming()
	layout := NewLayout(p)
	g := NewGenerator(p, layout, 0, 11)
	var prev uint64
	var inStream, sequential int
	for i := 0; i < 2_000_000; i++ {
		op := g.Next()
		if op.Kind == OpNonMem {
			continue
		}
		if op.Addr >= layout.StreamBase && op.Addr < layout.ColdBase {
			if prev != 0 && op.Addr == prev+64 {
				sequential++
			}
			inStream++
			prev = op.Addr
		}
	}
	if inStream == 0 {
		t.Fatal("no stream references generated")
	}
	// Most stream references continue the previous block.
	if frac := float64(sequential) / float64(inStream); frac < 0.5 {
		t.Fatalf("sequential fraction = %f, want > 0.5", frac)
	}
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	for _, p := range All() {
		l := NewLayout(p)
		hotEnd := l.HotBase + l.HotStride*uint64(p.Cores)
		if hotEnd > l.StreamBase {
			t.Errorf("%s: hot overlaps stream", p.Acronym)
		}
		if l.StreamBase+l.StreamSize > l.ColdBase {
			t.Errorf("%s: stream overlaps cold", p.Acronym)
		}
		if l.ColdBase+l.ColdSize != l.Limit {
			t.Errorf("%s: limit mismatch", p.Acronym)
		}
	}
}

func TestIOAgentDisabled(t *testing.T) {
	if NewIOAgent(IOProfile{}, NewLayout(DataServing()), 1, 1) != nil {
		t.Fatal("disabled IO profile built an agent")
	}
}

func TestIOAgentRateScalesWithChannels(t *testing.T) {
	p := WebFrontend()
	layout := NewLayout(p)
	count := func(channels int) int {
		a := NewIOAgent(p.IO, layout, channels, 99)
		n := 0
		for i := 0; i < 2_000_000; i++ {
			if _, ok, _ := a.Next(uint64(i)); ok {
				n++
			}
		}
		return n
	}
	one, four := count(1), count(4)
	if one == 0 {
		t.Fatal("agent produced no traffic")
	}
	ratio := float64(four) / float64(one)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("4-channel/1-channel IO ratio = %f, want ~4", ratio)
	}
}

func TestIOAgentBurstsSequential(t *testing.T) {
	p := MediaStreaming()
	a := NewIOAgent(p.IO, NewLayout(p), 1, 5)
	var prev uint64
	var seq, total int
	for i := 0; i < 3_000_000 && total < 2000; i++ {
		addr, ok, _ := a.Next(uint64(i))
		if !ok {
			prev = 0
			continue
		}
		if prev != 0 && addr == prev+64 {
			seq++
		}
		prev = addr
		total++
	}
	if total == 0 {
		t.Fatal("no IO traffic")
	}
	if frac := float64(seq) / float64(total); frac < 0.8 {
		t.Fatalf("IO sequential fraction = %f, want > 0.8", frac)
	}
}

func TestValidateRejectsBrokenProfiles(t *testing.T) {
	base := DataServing()
	// withIO gives the profile Media Streaming's DMA agent, then breaks it.
	withIO := func(mutate func(*IOProfile)) func(*Profile) {
		return func(p *Profile) {
			p.IO = MediaStreaming().IO
			mutate(&p.IO)
		}
	}
	mutations := []func(*Profile){
		func(p *Profile) { p.Cores = 0 },
		func(p *Profile) { p.MemRefsPerKiloInstr = 0 },
		func(p *Profile) { p.StoreFraction = 1.5 },
		func(p *Profile) { p.BaseCPI = 0.5 },
		func(p *Profile) { p.TargetMPKI = 0 },
		func(p *Profile) { p.TargetMPKI = p.MemRefsPerKiloInstr + 1 },
		func(p *Profile) { p.TargetRowHit = 1.0 },
		func(p *Profile) { p.TargetSingleAccess = 0 },
		func(p *Profile) { p.MLPLimit = 0 },
		func(p *Profile) { p.CoreIntensity = nil },
		func(p *Profile) { p.ColdBytes = 0 },
		func(p *Profile) { p.MemRefsPerKiloInstr = math.NaN() },
		func(p *Profile) { p.StoreFraction = math.NaN() },
		func(p *Profile) { p.BaseCPI = math.NaN() },
		func(p *Profile) { p.BaseCPI = math.Inf(1) },
		func(p *Profile) { p.TargetMPKI = math.NaN() },
		func(p *Profile) { p.TargetRowHit = math.NaN() },
		func(p *Profile) { p.TargetSingleAccess = math.NaN() },
		func(p *Profile) { p.BurstStoreFraction = 1.5 },
		func(p *Profile) { p.BurstStoreFraction = math.NaN() },
		func(p *Profile) { p.HitCalib = math.NaN() },
		func(p *Profile) { p.HitCalib = math.Inf(1) },
		func(p *Profile) { p.HitCalib = -1.5 },
		func(p *Profile) { p.AccCalib = math.NaN() },
		func(p *Profile) { p.AccCalib = math.Inf(1) },
		func(p *Profile) { p.AccCalib = math.Inf(-1) },
		// A fresh slice: the built-in profiles share theirs.
		func(p *Profile) { p.CoreIntensity = []float64{1, math.NaN()} },
		func(p *Profile) { p.CoreIntensity = []float64{1, -1} },
		withIO(func(io *IOProfile) { io.BurstsPerMCycle = math.NaN() }),
		withIO(func(io *IOProfile) { io.BurstsPerMCycle = math.Inf(1) }),
		withIO(func(io *IOProfile) { io.BurstsPerMCycle = 0 }),
		withIO(func(io *IOProfile) { io.BurstsPerMCycle = -40 }),
		withIO(func(io *IOProfile) { io.BurstBlocks = 0 }),
		withIO(func(io *IOProfile) { io.BurstBlocks = -1 }),
		withIO(func(io *IOProfile) { io.WriteFraction = -0.1 }),
		withIO(func(io *IOProfile) { io.WriteFraction = 1.5 }),
		withIO(func(io *IOProfile) { io.WriteFraction = math.NaN() }),
	}
	sound := base
	withIO(func(*IOProfile) {})(&sound)
	if err := sound.Validate(); err != nil {
		t.Fatalf("unbroken DMA agent rejected: %v", err)
	}
	for i, mutate := range mutations {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if SCOW.String() != "SCO" || TRSW.String() != "TRS" || DSPW.String() != "DSP" {
		t.Fatal("category names wrong")
	}
}
