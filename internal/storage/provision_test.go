package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestAddNodeGrowsSystem(t *testing.T) {
	s := newTestSystem(t)
	before := s.Stats()
	idx := s.AddNode()
	if idx != 16 {
		t.Errorf("new node index = %d, want 16", idx)
	}
	after := s.Stats()
	if after.LiveNodes != before.LiveNodes+1 {
		t.Errorf("LiveNodes = %d, want %d", after.LiveNodes, before.LiveNodes+1)
	}
	if after.LiveDrives != before.LiveDrives+4 {
		t.Errorf("LiveDrives = %d, want %d", after.LiveDrives, before.LiveDrives+4)
	}
	if s.Config().Nodes != 17 {
		t.Errorf("Config().Nodes = %d, want 17", s.Config().Nodes)
	}
	// The fresh node is usable: fail another node, rebuild may place
	// shards there.
	if err := s.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
}

// The full provisioning loop: fail-in-place until capacity tightens, add
// spare nodes, keep operating — nothing lost.
func TestProvisioningLifecycle(t *testing.T) {
	s := newTestSystem(t)
	rng := rand.New(rand.NewSource(78))
	payloads := make(map[string][]byte)
	put := func(id string) {
		data := make([]byte, 2048+rng.Intn(2048))
		rng.Read(data)
		payloads[id] = data
		if err := s.Put(id, data); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
	}
	for i := 0; i < 30; i++ {
		put(fmt.Sprintf("gen0-%02d", i))
	}
	// Attrition: lose three nodes with rebuilds between.
	for _, n := range []int{2, 9, 14} {
		if err := s.FailNode(n); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	// Provision two spare nodes.
	s.AddNode()
	s.AddNode()
	// Keep writing a second generation.
	for i := 0; i < 20; i++ {
		put(fmt.Sprintf("gen1-%02d", i))
	}
	// One more failure for good measure.
	if err := s.FailNode(5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	for id, want := range payloads {
		got, err := s.Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after lifecycle: %v", id, err)
		}
	}
}
