package main

import (
	"time"

	"cityhunter"
)

// runSpans records the host-clock instants at which one run crosses the
// telemetry publisher seam. The run makes its callbacks in a fixed order:
//
//	StartRun             after env, knowledge seeding and site deployment
//	first snapshot       virtual 0, after arrivals and far-field spawn
//	last periodic snap   the end of the event loop
//	finish snapshot      after result assembly, then FinishRun
//
// so the gaps between them are the run's phases.
type runSpans struct {
	began        time.Time // the caller hands the run over
	started      time.Time // StartRun
	first        time.Time // first snapshot
	lastPeriodic time.Time // snapshot before the finish snapshot
	last         time.Time // most recent snapshot
	finished     time.Time // FinishRun
}

// StartRun implements cityhunter.TelemetryPublisher. Each runSpans serves
// exactly one run, so concurrent campaign specs each get their own.
func (s *runSpans) StartRun(cityhunter.TelemetryRunInfo) cityhunter.TelemetryRun {
	s.started = time.Now()
	return s
}

// PublishSnapshot implements cityhunter.TelemetryRun.
func (s *runSpans) PublishSnapshot(time.Duration, cityhunter.MetricsSnapshot) {
	now := time.Now()
	if s.first.IsZero() {
		s.first = now
	}
	s.lastPeriodic = s.last
	s.last = now
}

// PublishEvent implements cityhunter.TelemetryRun.
func (s *runSpans) PublishEvent(cityhunter.JournalEvent) {}

// FinishRun implements cityhunter.TelemetryRun.
func (s *runSpans) FinishRun(time.Duration, error) { s.finished = time.Now() }

// phases is one run's wall time split at the publisher callbacks.
type phases struct {
	prestart, spawn, loop, assembly time.Duration
}

func (p phases) total() time.Duration { return p.prestart + p.spawn + p.loop + p.assembly }

func (p phases) add(q phases) phases {
	return phases{p.prestart + q.prestart, p.spawn + q.spawn, p.loop + q.loop, p.assembly + q.assembly}
}

// split divides [began, end] into the four phases. A run that never
// reached a callback (an error before StartRun) charges everything to the
// last phase it did reach.
func (s *runSpans) split(end time.Time) phases {
	cut := func(t, floor time.Time) time.Time {
		if t.IsZero() || t.Before(floor) {
			return floor
		}
		return t
	}
	started := cut(s.started, s.began)
	first := cut(s.first, started)
	loopEnd := cut(s.lastPeriodic, first)
	if end.Before(loopEnd) {
		end = loopEnd
	}
	return phases{
		prestart: started.Sub(s.began),
		spawn:    first.Sub(started),
		loop:     loopEnd.Sub(first),
		assembly: end.Sub(loopEnd),
	}
}
