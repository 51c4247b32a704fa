package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The driver makes 92 runs and two builds in 3420 s, and a run that waits
// for a calm host (see measure) can take six times as long as one that does
// not. So the runs of a checkout share a purse: each brings runShare, the
// purse starts with paceCredit, and a run may take what is in it, up to
// runBudget. In a calm hour runs take 25-30 s and the purse fills; in a busy
// one they wait it empty and then stop waiting, and 92 runs come to no more
// than 92 x runShare + paceCredit, whatever the host does.
const (
	runBudget  = 165 * time.Second // the most one run takes, of the driver's 180 s
	runShare   = 33 * time.Second
	paceCredit = 200 * time.Second
	paceFile   = "pace.json" // in options.work
)

// pace is the purse: how many runs this checkout has made and how long they
// took.
type pace struct {
	Runs  int           `json:"runs"`
	Spent time.Duration `json:"spent_ns"`
}

func readPace(work string) pace {
	var p pace
	if b, err := os.ReadFile(filepath.Join(work, paceFile)); err == nil && json.Unmarshal(b, &p) != nil {
		p = pace{} // unreadable: start over
	}
	return p
}

// allowance is how long the next run may take.
func allowance(work string) time.Duration {
	p := readPace(work)
	return min(runBudget, paceCredit+time.Duration(p.Runs+1)*runShare-p.Spent)
}

// settle books a finished run.
func settle(work string, took time.Duration) {
	p := readPace(work)
	p.Runs, p.Spent = p.Runs+1, p.Spent+took
	if b, err := json.Marshal(p); err == nil {
		os.WriteFile(filepath.Join(work, paceFile), b, 0o644)
	}
}
