package sched

import (
	"math/rand"
	"testing"

	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// refFCFSBanksPick is FCFS_Banks' rule as the controller used to serve
// it: every option carried the minimum ID, over the considered queue,
// of the requests to its (rank, bank), and Pick chose the oldest option
// whose request held that minimum.
func refFCFSBanksPick(v *memctrl.View) int {
	q := v.ReadQueue
	if v.WriteMode {
		q = v.WriteQueue
	}
	type bankKey struct{ rank, bank int }
	oldest := make(map[bankKey]uint64)
	for _, r := range q {
		k := bankKey{r.Loc.Rank, r.Loc.Bank}
		if id, ok := oldest[k]; !ok || r.ID < id {
			oldest[k] = r.ID
		}
	}
	best := -1
	for i := range v.Options {
		r := v.Options[i].Req
		if oldest[bankKey{r.Loc.Rank, r.Loc.Bank}] != r.ID {
			continue
		}
		if best == -1 || r.ID < v.Options[best].Req.ID {
			best = i
		}
	}
	return best
}

// randomFCFSView builds ID-ascending read and write queues over up to
// three ranks of up to four banks, drawing their IDs from one counter
// as the controller does, and offers options for a random subset of the
// queue WriteMode selects, shuffled, with the occasional duplicate.
func randomFCFSView(rng *rand.Rand) *memctrl.View {
	ranks, banks := 1+rng.Intn(3), 1+rng.Intn(4)
	v := &memctrl.View{Now: 10_000, WriteMode: rng.Intn(2) == 0}
	id := uint64(rng.Intn(100))
	for n := rng.Intn(40); n > 0; n-- {
		id += 1 + uint64(rng.Intn(3))
		r := &memctrl.Request{ID: id, Loc: dram.Location{Rank: rng.Intn(ranks), Bank: rng.Intn(banks), Row: rng.Intn(4)}}
		if rng.Intn(2) == 0 {
			r.Kind = memctrl.WriteBack
			v.WriteQueue = append(v.WriteQueue, r)
		} else {
			v.ReadQueue = append(v.ReadQueue, r)
		}
	}
	q, col := v.ReadQueue, dram.CmdRead
	if v.WriteMode {
		q, col = v.WriteQueue, dram.CmdWrite
	}
	for _, r := range q {
		if rng.Intn(3) == 0 {
			continue // queued but no legal command this cycle
		}
		kind := []dram.CommandKind{dram.CmdActivate, dram.CmdPrecharge, col}[rng.Intn(3)]
		v.Options = append(v.Options, memctrl.Option{Cmd: dram.Command{Kind: kind, Loc: r.Loc}, Req: r, RowHit: kind == col})
		if rng.Intn(8) == 0 {
			v.Options = append(v.Options, v.Options[len(v.Options)-1])
		}
	}
	rng.Shuffle(len(v.Options), func(i, j int) { v.Options[i], v.Options[j] = v.Options[j], v.Options[i] })
	v.ReadQLen, v.WriteQLen = len(v.ReadQueue), len(v.WriteQueue)
	return v
}

// TestFCFSBanksMatchesBankOldestRule drives FCFS_Banks through seeded
// random views, with WriteMode off and on, and requires Pick to choose
// exactly the option the per-bank minimum-ID rule chooses. Reads and
// writes draw IDs from one counter and share ranks and banks, and ranks
// share bank numbers, so a Pick that reads the other queue, or tells
// banks apart without their rank, picks differently. Pick allocates
// nothing.
func TestFCFSBanksMatchesBankOldestRule(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := NewFCFSBanks()
	var refused [2]int // per WriteMode: trials where the oldest option was not a bank head
	var deep *memctrl.View
	for trial := 0; trial < 4_000; trial++ {
		v := randomFCFSView(rng)
		want := refFCFSBanksPick(v)
		if got := p.Pick(v); got != want {
			t.Fatalf("trial %d: WriteMode %v, %d reads, %d writes, %d options: pick %d, per-bank minimum rule %d",
				trial, v.WriteMode, len(v.ReadQueue), len(v.WriteQueue), len(v.Options), got, want)
		}
		if want != v.OldestOption() {
			w := 0
			if v.WriteMode {
				w = 1
			}
			refused[w]++
		}
		if deep == nil && len(v.Options) >= 8 {
			deep = v
		}
	}
	if refused[0] < 100 || refused[1] < 100 {
		t.Fatalf("the per-bank rule refused the oldest option in only %d read-mode and %d write-mode trials", refused[0], refused[1])
	}
	t.Logf("oldest option refused in %d read-mode and %d write-mode trials", refused[0], refused[1])
	if n := testing.AllocsPerRun(100, func() { p.Pick(deep) }); n != 0 {
		t.Fatalf("Pick allocates %.1f times per call", n)
	}
}
