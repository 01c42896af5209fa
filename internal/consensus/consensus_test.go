package consensus

import (
	"math/rand"
	"sync"
	"testing"
)

// TestAdoptCommitAllInterleavings2 enumerates every interleaving of
// two processes' phase steps (each process: phase1 then phase2) and
// checks the adopt-commit contract: if anyone commits u, everyone
// returns u; all returned values are inputs; unanimous inputs commit.
func TestAdoptCommitAllInterleavings2(t *testing.T) {
	// Orders as sequences over {P1, P2, Q1, Q2} respecting P1<P2, Q1<Q2.
	orders := [][]int{
		{0, 1, 2, 3}, // P1 P2 Q1 Q2
		{0, 2, 1, 3}, // P1 Q1 P2 Q2
		{0, 2, 3, 1}, // P1 Q1 Q2 P2
		{2, 0, 1, 3}, // Q1 P1 P2 Q2
		{2, 0, 3, 1}, // Q1 P1 Q2 P2
		{2, 3, 0, 1}, // Q1 Q2 P1 P2
	}
	for _, inputs := range [][2]int{{0, 1}, {1, 0}, {1, 1}, {0, 0}} {
		for oi, order := range orders {
			ac := NewAdoptCommit(2)
			var uP, uQ int
			var fP, fQ bool
			var outP, outQ Outcome
			var valP, valQ int
			for _, step := range order {
				switch step {
				case 0:
					uP, fP = ac.phase1(0, inputs[0])
				case 1:
					outP, valP = ac.phase2(0, inputs[0], uP, fP)
				case 2:
					uQ, fQ = ac.phase1(1, inputs[1])
				case 3:
					outQ, valQ = ac.phase2(1, inputs[1], uQ, fQ)
				}
			}
			if outP == Commit && valQ != valP {
				t.Errorf("inputs %v order %d: P committed %d but Q returned %d",
					inputs, oi, valP, valQ)
			}
			if outQ == Commit && valP != valQ {
				t.Errorf("inputs %v order %d: Q committed %d but P returned %d",
					inputs, oi, valQ, valP)
			}
			for _, v := range []int{valP, valQ} {
				if v != inputs[0] && v != inputs[1] {
					t.Errorf("inputs %v order %d: returned %d not an input", inputs, oi, v)
				}
			}
			if inputs[0] == inputs[1] {
				if outP != Commit || outQ != Commit || valP != inputs[0] || valQ != inputs[0] {
					t.Errorf("inputs %v order %d: unanimous inputs must both commit, got %v/%d %v/%d",
						inputs, oi, outP, valP, outQ, valQ)
				}
			}
		}
	}
}

// TestAdoptCommitRandomInterleavings3 drives three processes through
// random phase interleavings and checks the same contract.
func TestAdoptCommitRandomInterleavings3(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		ac := NewAdoptCommit(3)
		inputs := [3]int{rng.Intn(2), rng.Intn(2), rng.Intn(2)}
		type state struct {
			u     int
			first bool
			out   Outcome
			val   int
			phase int
		}
		var st [3]state
		for !(st[0].phase == 2 && st[1].phase == 2 && st[2].phase == 2) {
			p := rng.Intn(3)
			switch st[p].phase {
			case 0:
				st[p].u, st[p].first = ac.phase1(p, inputs[p])
				st[p].phase = 1
			case 1:
				st[p].out, st[p].val = ac.phase2(p, inputs[p], st[p].u, st[p].first)
				st[p].phase = 2
			default:
				continue
			}
		}
		committed := -1
		for p := 0; p < 3; p++ {
			if st[p].out == Commit {
				committed = st[p].val
			}
		}
		if committed != -1 {
			for p := 0; p < 3; p++ {
				if st[p].val != committed {
					t.Fatalf("trial %d inputs %v: commit %d but P%d returned %d (%v)",
						trial, inputs, committed, p, st[p].val, st[p].out)
				}
			}
		}
		for p := 0; p < 3; p++ {
			if st[p].val != inputs[0] && st[p].val != inputs[1] && st[p].val != inputs[2] {
				t.Fatalf("trial %d: value %d not an input %v", trial, st[p].val, inputs)
			}
		}
	}
}

func TestAdoptCommitConcurrent(t *testing.T) {
	for seed := 0; seed < 30; seed++ {
		const n = 6
		ac := NewAdoptCommit(n)
		outs := make([]Outcome, n)
		vals := make([]int, n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				outs[p], vals[p] = ac.Apply(p, (p+seed)%2)
			}(p)
		}
		wg.Wait()
		committed := -1
		for p := 0; p < n; p++ {
			if outs[p] == Commit {
				committed = vals[p]
			}
		}
		if committed != -1 {
			for p := 0; p < n; p++ {
				if vals[p] != committed {
					t.Fatalf("seed %d: commit %d but slot %d holds %d", seed, committed, p, vals[p])
				}
			}
		}
	}
}

func TestAdoptCommitRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewAdoptCommit(2).Apply(0, -1)
}

func TestSharedCoinTerminatesAndIsBinary(t *testing.T) {
	const n = 4
	c := NewSharedCoin(n, 99)
	var wg sync.WaitGroup
	outs := make([]int, n)
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			outs[p] = c.Flip(p)
		}(p)
	}
	wg.Wait()
	for p, v := range outs {
		if v != 0 && v != 1 {
			t.Errorf("slot %d: coin returned %d", p, v)
		}
	}
}

func TestSharedCoinSolo(t *testing.T) {
	// A solo process must still terminate (wait-freedom): the walk
	// drifts to a barrier on its own flips.
	c := NewSharedCoin(3, 5)
	if v := c.Flip(0); v != 0 && v != 1 {
		t.Fatalf("solo flip = %d", v)
	}
}

func TestConsensusUnanimous(t *testing.T) {
	for _, v := range []int{0, 1} {
		const n = 5
		c := New(n, 7)
		var wg sync.WaitGroup
		outs := make([]int, n)
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				outs[p] = c.Decide(p, v)
			}(p)
		}
		wg.Wait()
		for p, got := range outs {
			if got != v {
				t.Errorf("input %d: slot %d decided %d (validity violated)", v, p, got)
			}
		}
	}
}

// TestConsensusAgreementAndValidity is the headline test: many seeds,
// mixed inputs, full concurrency — all decisions equal and valid.
func TestConsensusAgreementAndValidity(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		const n = 6
		c := New(n, seed)
		rng := rand.New(rand.NewSource(seed + 1000))
		inputs := make([]int, n)
		ones := 0
		for p := range inputs {
			inputs[p] = rng.Intn(2)
			ones += inputs[p]
		}
		outs := make([]int, n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				outs[p] = c.Decide(p, inputs[p])
			}(p)
		}
		wg.Wait()
		for p := 1; p < n; p++ {
			if outs[p] != outs[0] {
				t.Fatalf("seed %d inputs %v: disagreement %v", seed, inputs, outs)
			}
		}
		if ones == 0 && outs[0] != 0 || ones == n && outs[0] != 1 {
			t.Fatalf("seed %d: unanimous inputs %v decided %d", seed, inputs, outs[0])
		}
	}
}

// TestConsensusWithCrashedProcesses: slots that never call Decide must
// not block the others (wait-freedom / randomized termination).
func TestConsensusWithCrashedProcesses(t *testing.T) {
	const n = 6
	c := New(n, 11)
	// Only slots 0..2 participate; 3..5 are crashed from the start.
	outs := make([]int, 3)
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			outs[p] = c.Decide(p, p%2)
		}(p)
	}
	wg.Wait()
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Fatalf("disagreement among survivors: %v", outs)
	}
}

func TestConsensusDecideIsSticky(t *testing.T) {
	c := New(2, 3)
	first := c.Decide(0, 1)
	if again := c.Decide(0, 0); again != first {
		t.Errorf("second Decide returned %d, want cached %d", again, first)
	}
}

func TestConsensusRejectsBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(2, 1).Decide(0, 2)
}

// TestConsensusLateJoiner: a process that starts long after the others
// decided must decide the same value regardless of its own input.
func TestConsensusLateJoiner(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		const n = 4
		c := New(n, seed)
		outs := make([]int, n-1)
		var wg sync.WaitGroup
		for p := 0; p < n-1; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				outs[p] = c.Decide(p, p%2)
			}(p)
		}
		wg.Wait()
		late := c.Decide(n-1, 1-outs[0]) // propose the opposite
		if late != outs[0] {
			t.Fatalf("seed %d: late joiner decided %d, others %d", seed, late, outs[0])
		}
	}
}
