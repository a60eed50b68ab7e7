package ingest

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestPeerFrameRoundTrips(t *testing.T) {
	ring := RingUpdate{
		Version: 7,
		Members: []Member{
			{ID: "n0", Addr: "127.0.0.1:9001", Weight: 1, Epoch: 1},
			{ID: "n1", Addr: "127.0.0.1:9002", Weight: 4, Epoch: 3},
		},
	}
	t.Run("join", func(t *testing.T) {
		in := Join{Version: ProtoVersion, Weight: 2, NodeID: "n0", Addr: "127.0.0.1:9001"}
		typ, body := readOne(t, AppendJoin(nil, in))
		if typ != FrameJoin {
			t.Fatalf("type %#x", typ)
		}
		got, err := ParseJoin(body)
		if err != nil || got != in {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("join-ok", func(t *testing.T) {
		in := JoinOK{Epoch: 5, LeaseMillis: 1500, Ring: ring}
		typ, body := readOne(t, AppendJoinOK(nil, in))
		if typ != FrameJoinOK {
			t.Fatalf("type %#x", typ)
		}
		got, err := ParseJoinOK(body)
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("lease", func(t *testing.T) {
		in := Lease{
			Epoch: 5, RingVersion: 7, Draining: true,
			Stats: NodeStats{Streams: 3, Accepted: 100, Shed: 2, Verdicts: 99, Attributed: 97, Held: 2},
		}
		typ, body := readOne(t, AppendLease(nil, in))
		if typ != FrameLease {
			t.Fatalf("type %#x", typ)
		}
		got, err := ParseLease(body)
		if err != nil || got != in {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("lease-ok", func(t *testing.T) {
		in := LeaseOK{Epoch: 5, Drain: true, Ring: ring}
		typ, body := readOne(t, AppendLeaseOK(nil, in))
		if typ != FrameLeaseOK {
			t.Fatalf("type %#x", typ)
		}
		got, err := ParseLeaseOK(body)
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("state-install", func(t *testing.T) {
		in := StreamState{Key: "acme/s0", Interval: 42, Blob: []byte{9, 8, 7, 0, 1}}
		for _, typ := range []byte{FrameState, FrameInstall} {
			gotTyp, body := readOne(t, AppendStreamState(nil, typ, in))
			if gotTyp != typ {
				t.Fatalf("type %#x want %#x", gotTyp, typ)
			}
			got, err := ParseStreamState(body)
			if err != nil || got.Key != in.Key || got.Interval != in.Interval ||
				!reflect.DeepEqual(got.Blob, in.Blob) {
				t.Fatalf("got %+v err %v", got, err)
			}
		}
	})
	t.Run("redirect", func(t *testing.T) {
		in := Redirect{Addr: "127.0.0.1:9002", Reason: "stream placement"}
		typ, body := readOne(t, AppendRedirect(nil, in))
		if typ != FrameRedirect {
			t.Fatalf("type %#x", typ)
		}
		got, err := ParseRedirect(body)
		if err != nil || got != in {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
}

func TestPeerFrameRejects(t *testing.T) {
	// Version-2 nodes cannot join a version-3 cluster.
	for _, v := range []byte{2, 99} {
		if _, err := ParseJoin(appendJoinBody(Join{Version: v, Weight: 1, NodeID: "n", Addr: "a"})); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("join version %d: %v", v, err)
		}
	}
	if _, err := ParseJoin(appendJoinBody(Join{Version: ProtoVersion, Weight: 1, NodeID: "", Addr: "a"})); err == nil {
		t.Fatal("empty node ID accepted")
	}
	if _, err := ParseRedirect(appendString(appendString(nil, ""), "r")); err == nil {
		t.Fatal("empty redirect addr accepted")
	}
	if _, err := ParseStreamState([]byte{0, 0}); !errors.Is(err, ErrBadFrame) {
		t.Fatal("truncated state accepted")
	}
	if _, err := ParseLease(make([]byte, 10)); !errors.Is(err, ErrBadFrame) {
		t.Fatal("short lease accepted")
	}
	// A ring whose member list is cut short must error, not over-read.
	ok := AppendJoinOK(nil, JoinOK{Epoch: 1, LeaseMillis: 100, Ring: RingUpdate{
		Version: 1, Members: []Member{{ID: "n0", Addr: "a", Weight: 1}},
	}})
	_, body := readOne(t, ok)
	if _, err := ParseJoinOK(body[:len(body)-6]); err == nil {
		t.Fatal("truncated ring accepted")
	}
}

// appendJoinBody builds a raw JOIN body (bypassing AppendJoin's weight
// clamp) for reject tests.
func appendJoinBody(j Join) []byte {
	body := []byte{j.Version, byte(j.Weight >> 8), byte(j.Weight)}
	body = appendString(body, j.NodeID)
	return appendString(body, j.Addr)
}

func TestBackoffJitterIsSeededAndBounded(t *testing.T) {
	hint := Retry{AfterMillis: 200, Reason: "tenant admission rate"}
	// Deterministic: same (seed, scope, attempt) → same wait.
	a := Backoff(hint, 42, "t/s0", 1)
	b := Backoff(hint, 42, "t/s0", 1)
	if a != b {
		t.Fatalf("same inputs gave %v and %v", a, b)
	}
	// Jittered: distinct scopes must not retry in lockstep. With 32
	// streams a shared schedule would collide everywhere; require that
	// at least half the draws are unique.
	seen := map[time.Duration]int{}
	for i := 0; i < 32; i++ {
		seen[Backoff(hint, 42, "t/s"+string(rune('a'+i)), 0)]++
	}
	if len(seen) < 16 {
		t.Fatalf("32 scopes produced only %d distinct waits", len(seen))
	}
	// Bounded: attempt n draws from [base/2, base] with base = hint<<n.
	for attempt := 0; attempt < 6; attempt++ {
		base := 200 * time.Millisecond << attempt
		w := Backoff(hint, 7, "t/s0", attempt)
		if w < base/2 || w > base {
			t.Fatalf("attempt %d: wait %v outside [%v, %v]", attempt, w, base/2, base)
		}
	}
	// Capped growth and a floor for hint-less RETRYs.
	if w := Backoff(Retry{}, 1, "s", 40); w > MaxBackoff {
		t.Fatalf("uncapped backoff %v", w)
	}
	if w := Backoff(Retry{}, 1, "s", 0); w < DefaultRetryMillis*time.Millisecond/2 {
		t.Fatalf("zero-hint backoff %v below floor", w)
	}
}
