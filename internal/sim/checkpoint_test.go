package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// sampleCheckpoint builds a checkpoint with non-trivial values in every
// field, including a negative Assign entry (an unplaced thread) to
// exercise the signed round-trip through uint64.
func sampleCheckpoint() *OnlineCheckpoint {
	return &OnlineCheckpoint{
		Epoch:  7,
		Cycle:  123456789,
		Assign: []int{2, 0, -1, 1},
		Pair: [][]uint64{
			{0, 10, 0, 3},
			{10, 0, 99, 0},
			{0, 99, 0, 1},
			{3, 0, 1, 0},
		},
		EpochPair: [][]uint64{
			{0, 4, 0, 0},
			{4, 0, 7, 0},
			{0, 7, 0, 1},
			{0, 0, 1, 0},
		},
	}
}

// TestCheckpointRoundTrip: decode(encode(ck)) reproduces ck exactly and
// re-encoding the decoded value is byte-identical — the encoding is a
// deterministic bijection over its domain.
func TestCheckpointRoundTrip(t *testing.T) {
	cases := map[string]*OnlineCheckpoint{
		"sample": sampleCheckpoint(),
		"empty":  {Epoch: 0, Cycle: 0, Assign: []int{}, Pair: [][]uint64{}, EpochPair: [][]uint64{}},
		"single": {Epoch: 1, Cycle: 42, Assign: []int{0}, Pair: [][]uint64{{0}}, EpochPair: [][]uint64{{0}}},
	}
	for name, ck := range cases {
		enc := EncodeOnlineCheckpoint(ck)
		got, err := DecodeOnlineCheckpoint(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(ck, got) {
			t.Fatalf("%s: round-trip mismatch:\n in: %+v\nout: %+v", name, ck, got)
		}
		again := EncodeOnlineCheckpoint(got)
		if !bytes.Equal(enc, again) {
			t.Fatalf("%s: re-encode is not byte-identical", name)
		}
	}
}

// TestCheckpointLiveRoundTrip runs the online engine and round-trips
// every checkpoint the policy observes, proving the mid-run hand-off
// unit survives serialization without loss.
func TestCheckpointLiveRoundTrip(t *testing.T) {
	tr, pl, cfg := onlineTestWorkload(t)
	seen := 0
	probe := func(ck *OnlineCheckpoint) {
		seen++
		enc := EncodeOnlineCheckpoint(ck)
		got, err := DecodeOnlineCheckpoint(enc)
		if err != nil {
			t.Fatalf("epoch %d: decode: %v", ck.Epoch, err)
		}
		if !reflect.DeepEqual(ck, got) {
			t.Fatalf("epoch %d: live checkpoint round-trip mismatch", ck.Epoch)
		}
		if !bytes.Equal(enc, EncodeOnlineCheckpoint(got)) {
			t.Fatalf("epoch %d: re-encode differs", ck.Epoch)
		}
	}
	opts := OnlineOptions{Interval: 500, Penalty: 8, Policy: checkpointSpyPolicy{probe}}
	if _, err := Run(tr, Spec{Config: cfg, Placement: pl, Online: opts, Engine: FastEngine}); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("policy saw no checkpoints")
	}
}

// checkpointSpyPolicy inspects every checkpoint and never migrates.
type checkpointSpyPolicy struct{ probe func(*OnlineCheckpoint) }

func (checkpointSpyPolicy) Name() string { return "SPY" }
func (p checkpointSpyPolicy) Decide(ck *OnlineCheckpoint, _ OnlineEnv) []int {
	p.probe(ck)
	return nil
}

// TestCheckpointDecodeErrors: malformed payloads are rejected, never
// misparsed.
func TestCheckpointDecodeErrors(t *testing.T) {
	good := EncodeOnlineCheckpoint(sampleCheckpoint())

	badMagic := append([]byte("MTCX"), good[4:]...)
	oversized := append([]byte(nil), good...)
	// Rewrite the thread count (offset 4+8+8) past the limit.
	copy(oversized[20:28], []byte{0, 0, 0, 0, 0, 1, 0, 1})

	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:3],
		"bad magic":   badMagic,
		"no header":   good[:10],
		"truncated":   good[:len(good)-8],
		"trailing":    append(append([]byte(nil), good...), 0),
		"oversized":   oversized,
		"header only": good[:28],
	}
	for name, b := range cases {
		if _, err := DecodeOnlineCheckpoint(b); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
}
