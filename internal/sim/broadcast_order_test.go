package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
)

// churnStation is a tuned station for broadcast-order checks: channel 0 is
// agnostic, and every reception is logged by id when log is set.
type churnStation struct {
	id     int
	addr   ieee80211.MAC
	pos    geo.Point
	ch     uint8
	log    *[]int
	onRecv func()
}

func (s *churnStation) Addr() ieee80211.MAC   { return s.addr }
func (s *churnStation) Pos() geo.Point        { return s.pos }
func (s *churnStation) CurrentChannel() uint8 { return s.ch }
func (s *churnStation) Receive(*ieee80211.Frame) {
	if s.log != nil {
		*s.log = append(*s.log, s.id)
	}
	if s.onRecv != nil {
		s.onRecv()
	}
}

var churnChannels = []uint8{0, 1, 6, 11}

// newChurnStations returns n stations spread uniformly over the square of
// half-width half around the origin, on mixed channels.
func newChurnStations(rng *rand.Rand, n int, half float64, log *[]int) []*churnStation {
	st := make([]*churnStation, n)
	for i := range st {
		st[i] = &churnStation{
			id:   i,
			addr: ieee80211.MAC{0x02, 0x0c, 0, 0, byte(i >> 8), byte(i)},
			pos:  geo.Pt((2*rng.Float64()-1)*half, (2*rng.Float64()-1)*half),
			ch:   churnChannels[rng.Intn(len(churnChannels))],
			log:  log,
		}
	}
	return st
}

// churn moves, detaches and re-attaches stations at random, so that grid
// buckets stop listing their stations in slot order: a move appends the
// station to its new cell's bucket, a detach swap-removes it from its old
// one, and a re-attach takes a fresh slot at the end of the table.
func churn(rng *rand.Rand, m *Medium, st []*churnStation, half float64, ops int) {
	for n := 0; n < ops; n++ {
		s := st[rng.Intn(len(st))]
		attached := m.Attached(s.addr)
		switch op := rng.Intn(3); {
		case op == 0 && attached:
			s.pos = geo.Pt((2*rng.Float64()-1)*half, (2*rng.Float64()-1)*half)
			m.Moved(s.addr)
		case op == 1 && attached:
			m.Detach(s.addr)
		case !attached:
			s.pos = geo.Pt((2*rng.Float64()-1)*half, (2*rng.Float64()-1)*half)
			if err := m.Attach(s); err != nil {
				panic(err)
			}
		}
	}
}

// bruteForceReceivers lists, in ascending slot order, every attached
// station that hears a broadcast from tx: the scan over all slots that the
// grid-narrowed fan-out must reproduce.
func bruteForceReceivers(m *Medium, tx *churnStation) []int {
	var want []int
	for _, s := range m.order {
		rx, _ := s.(*churnStation)
		if rx == nil || rx == tx || !sameChannel(tx.ch, rx) {
			continue
		}
		if tx.pos.Dist2(rx.pos) <= m.maxRange*m.maxRange {
			want = append(want, rx.id)
		}
	}
	return want
}

// TestMediumBroadcastOrderUnderChurn checks the broadcast walk against a
// brute-force scan of the whole station table, over several seeds: a few
// hundred stations on mixed channels across about 3×3 cells are
// moved, detached and re-attached between broadcasts, and each broadcast's
// receive sequence must equal the in-range, on-channel slots in ascending
// order. Every fourth broadcast one receiver detaches enough others to
// compact the table mid-fan-out; the victims after it in the sequence must
// then be skipped.
func TestMediumBroadcastOrderUnderChurn(t *testing.T) {
	const (
		radius = 50.0
		half   = 1.5 * radius // a 150 m square: the area of 3×3 cells
	)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		m := NewMedium(e, radius)
		var got []int
		st := newChurnStations(rng, 300, half, &got)
		for _, s := range st {
			if err := m.Attach(s); err != nil {
				t.Fatal(err)
			}
		}
		outOfOrder, compactions := 0, 0
		for round := 0; round < 40; round++ {
			churn(rng, m, st, half, 60)
			var tx *churnStation
			for tx == nil || !m.Attached(tx.addr) {
				tx = st[rng.Intn(len(st))]
			}
			want := bruteForceReceivers(m, tx)
			cands := m.grid.AppendNeighborhood(nil, tx.pos, radius)
			if !slices.IsSorted(cands) {
				outOfOrder++
			}

			var trigger *churnStation
			if round%4 == 3 && len(want) > 2 {
				// The receiver a third of the way in detaches others until
				// live slots are at most half the table, which compacts it.
				trigger = st[want[len(want)/3]]
				var victims []*churnStation
				live := m.StationCount()
				for _, i := range rng.Perm(len(st)) {
					if live*2 <= len(m.order) {
						break
					}
					if v := st[i]; v != tx && v != trigger && m.Attached(v.addr) {
						victims = append(victims, v)
						live--
					}
				}
				trigger.onRecv = func() {
					for _, v := range victims {
						m.Detach(v.addr)
					}
				}
				gone := map[int]bool{}
				for _, v := range victims {
					gone[v.id] = true
				}
				k := len(want)/3 + 1
				tail := slices.DeleteFunc(slices.Clone(want[k:]), func(id int) bool { return gone[id] })
				want = append(want[:k], tail...)
			}

			gen := m.compactGen
			got = got[:0]
			m.Transmit(probeReq(tx.addr))
			e.Run(e.Now() + time.Second)
			if trigger != nil {
				trigger.onRecv = nil
				if m.compactGen == gen {
					t.Fatalf("seed %d round %d: the trigger's detaches did not compact the table", seed, round)
				}
				compactions++
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: receive sequence\n%v\nwant brute-force slot order\n%v", seed, round, got, want)
			}
			for w, word := range m.mark {
				if word != 0 {
					t.Fatalf("seed %d round %d: mark word %d left %#x after the walk", seed, round, w, word)
				}
			}
		}
		if outOfOrder == 0 || compactions == 0 {
			t.Fatalf("seed %d: churn left %d unsorted neighbourhoods and %d mid-fan-out compactions; both must occur",
				seed, outOfOrder, compactions)
		}
	}
}

// TestMediumMonitorCompactionKeepsTransmitterSlot covers a monitor-mode
// station whose Receive compacts the station table before the broadcast
// fan-out starts: the fan-out must skip the transmitter at its new slot,
// not whichever station took over the old one.
func TestMediumMonitorCompactionKeepsTransmitterSlot(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	st := newChurnStations(rand.New(rand.NewSource(1)), 100, 20, nil)
	received := make([]int, len(st))
	for _, s := range st {
		s.ch = 0
		id := s.id
		s.onRecv = func() { received[id]++ }
		if err := m.Attach(s); err != nil {
			t.Fatal(err)
		}
	}
	tx := st[90]
	monitor := &fakeStation{addr: mac(0xee), pos: geo.Pt(0, 0)}
	monitor.onRecv = func(*ieee80211.Frame) {
		for _, s := range st[:80] {
			m.Detach(s.addr)
		}
	}
	if err := m.AttachPromiscuous(monitor); err != nil {
		t.Fatal(err)
	}
	gen := m.compactGen
	m.Transmit(probeReq(tx.addr))
	e.Run(time.Second)
	if m.compactGen == gen {
		t.Fatal("the monitor's detaches did not compact the table")
	}
	for _, s := range st[80:] {
		want := 1
		if s == tx {
			want = 0
		}
		if received[s.id] != want {
			t.Errorf("station %d received %d frames, want %d", s.id, received[s.id], want)
		}
	}
}
