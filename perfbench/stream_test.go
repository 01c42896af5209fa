package main

import (
	"bytes"
	"testing"

	"repro/apram/workload"
)

// TestStreamsFollowSeed pins the benchmark's inputs to its seed: the
// same seed encodes every workload's stream byte for byte, and another
// seed changes it.
func TestStreamsFollowSeed(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		encode := func(seed int64) []byte {
			evs, err := s.stream(seed)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if _, err := s.inputs(evs); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			return workload.EncodeStream(evs)
		}
		a, b, c := encode(7), encode(7), encode(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 encoded two different streams", s.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 encoded the same stream", s.name)
		}
	}
}
