package chaos

import (
	"sort"
	"testing"
)

// FuzzChaosParse feeds the schedule parser arbitrary specs — they come
// from a command line (ic-replay -chaos). No input may panic it, and an
// accepted schedule is non-empty, sorted by offset, and made only of
// events the Runner knows how to apply.
func FuzzChaosParse(f *testing.F) {
	f.Add("0s:corrupt:*:0.02:2s,10ms:reclaim:p0-node0:all,40ms:crashproxy:0")
	f.Add("1s:refuse:client:2s, 250ms:hangup:client:0.15 ,0s:latency:*:2ms:5s")
	f.Add("250ms:rot:p1-node2:0.4:2s,3200ms:reclaim:p2-*:3")
	f.Add("")
	f.Add(",,")
	f.Add("-1s:reclaim:x:1")
	f.Add("0s:corrupt:*:1.5")
	f.Add("0s:latency:*:0s")
	f.Add("9223372036854775807ns:crashproxy:0")
	f.Add("30ms:join:1,2s:leave:1")
	f.Add("0s:join:0")
	f.Add("1s:leave:-1,0s:join:2:x")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		if len(s.Events) == 0 {
			t.Fatalf("%q: accepted an empty schedule", spec)
		}
		if !sort.SliceIsSorted(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At }) {
			t.Fatalf("%q: events not sorted by offset: %+v", spec, s.Events)
		}
		for _, ev := range s.Events {
			switch ev.Kind {
			case "reclaim":
				if ev.N == 0 || ev.N < -1 {
					t.Fatalf("%q: reclaim count %d", spec, ev.N)
				}
			case "crashproxy":
				if ev.N < 0 {
					t.Fatalf("%q: proxy index %d", spec, ev.N)
				}
			case "join", "leave":
				if ev.N < 1 || ev.Pattern != "" || ev.Rate != 0 || ev.Window != 0 {
					t.Fatalf("%q: %s event %+v", spec, ev.Kind, ev)
				}
			case "latency":
				if ev.Extra <= 0 {
					t.Fatalf("%q: latency of %v", spec, ev.Extra)
				}
			case "corrupt", "rot", "hangup", "refuse":
				if !(ev.Rate > 0 && ev.Rate <= 1) {
					t.Fatalf("%q: %s rate %v", spec, ev.Kind, ev.Rate)
				}
			default:
				t.Fatalf("%q: unknown kind %q accepted", spec, ev.Kind)
			}
			if ev.At < 0 || ev.Window < 0 {
				t.Fatalf("%q: negative offset or window in %+v", spec, ev)
			}
		}
	})
}
