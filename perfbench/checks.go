package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strings"

	"cityhunter"
	"cityhunter/internal/stats"
)

// maxRepliesPerScan is the paper's per-scan budget: at most 40 probe
// responses answer one broadcast probe.
const maxRepliesPerScan = 40

// digest fingerprints an operation's simulated results — tallies, per-phone
// outcomes, victims, far-field accounting and the campaign aggregate — and
// nothing host-dependent, so repeats of one operation, traced or not, must
// agree on it.
func digest(o *outcome) string {
	h := sha256.New()
	switch {
	case o.run != nil:
		writeResult(h, o.run)
	case o.dep != nil:
		writeDeployment(h, o.dep)
	case o.camp != nil:
		for i, r := range o.camp.Results {
			fmt.Fprintf(h, "spec %d err=%v\n", i, o.camp.Errs[i])
			if r != nil {
				writeResult(h, r)
			}
		}
		fmt.Fprintf(h, "completed %d aggregate %+v\n", o.camp.Completed, o.camp.Aggregate)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeResult(w io.Writer, r *cityhunter.Result) {
	fmt.Fprintf(w, "run %s slot=%d %s %v %s\n", r.Venue, r.Slot, r.SlotLabel, r.Duration, r.Attack)
	fmt.Fprintf(w, "tally %+v\nreport %+v\ncanary %d\n", r.Tally, r.Report, r.CanaryDetections)
	writeOutcomes(w, r.Outcomes)
	for _, v := range r.Victims {
		fmt.Fprintf(w, "victim %s %q %v %t\n", v.MAC, v.SSID, v.At, v.DirectProber)
	}
	if r.Links != nil {
		fmt.Fprintf(w, "links %+v\n", *r.Links)
	}
}

func writeOutcomes(w io.Writer, outcomes []cityhunter.Outcome) {
	for _, o := range outcomes {
		fmt.Fprintf(w, "outcome %+v\n", o)
	}
}

func writeDeployment(w io.Writer, d *cityhunter.DeploymentResult) {
	for _, s := range d.Sites {
		writeResult(w, s)
	}
	fmt.Fprintf(w, "pooled %+v knowledge=%v roams=%d duration=%v\n", d.Tally, d.Knowledge, d.Roams, d.Duration)
	if ff := d.FarField; ff != nil {
		fmt.Fprintf(w, "farfield ped=%d promoted=%d promotions=%d demotions=%d peak=%d tally %+v sites %+v\n",
			ff.Pedestrians, ff.Promoted, ff.Promotions, ff.Demotions, ff.PeakPromoted, ff.Tally, ff.Sites)
		writeOutcomes(w, ff.Outcomes)
	}
}

// verify checks an operation's invariants and that its digest equals ref,
// the digest of the invocation's first good operation; an empty ref adopts
// this operation's digest.
func verify(out *outcome, traced bool, ref *string) error {
	if err := check(out, traced); err != nil {
		return err
	}
	switch d := digest(out); {
	case *ref == "":
		*ref = d
	case d != *ref:
		return fmt.Errorf("digest %s differs from the first operation's %s", d, *ref)
	}
	return nil
}

// check verifies the run-end invariants of an operation's results. The
// reply-budget invariant needs the metrics registry, so it is checked on
// traced operations only.
func check(o *outcome, traced bool) error {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	checkTally := func(where string, t cityhunter.Tally) {
		if t.ConnectedDirect > t.Direct || t.ConnectedBroadcast > t.Broadcast {
			fail("%s: more phones connected than probed: %+v", where, t)
		}
		if t.Direct+t.Broadcast != t.Total {
			fail("%s: direct %d + broadcast %d != total %d", where, t.Direct, t.Broadcast, t.Total)
		}
	}
	checkResult := func(where string, r *cityhunter.Result) {
		checkTally(where, r.Tally)
		if got := stats.NewTally(r.Outcomes); got != r.Tally {
			fail("%s: tally %+v does not match its outcomes %+v", where, r.Tally, got)
		}
		if traced {
			if n := overBudgetReplies(r.Metrics); n > 0 {
				fail("%s: %d broadcast replies exceed %d responses", where, n, maxRepliesPerScan)
			}
		}
	}

	switch {
	case o.run != nil:
		checkResult("run", o.run)
	case o.dep != nil:
		d := o.dep
		var sum cityhunter.Tally
		for _, s := range d.Sites {
			checkResult("site "+s.Venue, s)
			sum.Total += s.Tally.Total
			sum.Direct += s.Tally.Direct
			sum.Broadcast += s.Tally.Broadcast
			sum.ConnectedDirect += s.Tally.ConnectedDirect
			sum.ConnectedBroadcast += s.Tally.ConnectedBroadcast
		}
		checkTally("pooled", d.Tally)
		if sum != d.Tally {
			fail("per-site tallies sum to %+v, pooled tally is %+v", sum, d.Tally)
		}
		if traced {
			if n := overBudgetReplies(d.Metrics); n > 0 {
				fail("deployment: %d broadcast replies exceed %d responses", n, maxRepliesPerScan)
			}
		}
		if ff := d.FarField; ff != nil {
			checkTally("far field", ff.Tally)
			promotions := 0
			for _, s := range ff.Sites {
				promotions += s.Promotions
			}
			if promotions != ff.Promotions {
				fail("far field: per-site promotions sum to %d, total is %d", promotions, ff.Promotions)
			}
			if len(ff.Outcomes) != ff.Promoted || ff.Promoted > ff.Pedestrians {
				fail("far field: %d outcomes, %d promoted, %d pedestrians", len(ff.Outcomes), ff.Promoted, ff.Pedestrians)
			}
		}
	case o.camp != nil:
		for i, r := range o.camp.Results {
			if err := o.camp.Errs[i]; err != nil {
				fail("spec %d: %v", i, err)
			}
			if r != nil {
				checkResult(fmt.Sprintf("spec %d", i), r)
			}
		}
		if o.camp.Completed != o.specs {
			fail("campaign completed %d of %d specs", o.camp.Completed, o.specs)
		}
	default:
		fail("operation returned no result")
	}
	if len(bad) > 0 {
		return fmt.Errorf("invariants: %s", strings.Join(bad, "; "))
	}
	return nil
}

// overBudgetReplies counts broadcast replies above the per-scan budget, from
// the core_batch_size histogram's overflow bucket.
func overBudgetReplies(snap cityhunter.MetricsSnapshot) int64 {
	var n int64
	for _, p := range snap {
		if p.Name != "core_batch_size" {
			continue
		}
		for _, b := range p.Buckets {
			if b.UpperBound > maxRepliesPerScan || math.IsInf(b.UpperBound, 1) {
				n += b.Count
			}
		}
	}
	return n
}
