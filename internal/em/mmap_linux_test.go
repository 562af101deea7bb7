package em

import (
	"bytes"
	"testing"
)

// TestMmapFailedGrowKeepsMapping pins the remap order: when the file
// cannot be grown, the old mapping stays in place, so the bytes already
// stored remain readable instead of the next access slicing a nil
// mapping.
func TestMmapFailedGrowKeepsMapping(t *testing.T) {
	s, err := newMmapSlots(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives a failed grow")
	if err := s.writeAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	mapped := len(s.data)
	// Close the backing file under the store: the next truncate fails.
	if err := s.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.grow(int64(4 * mapped)); err == nil {
		t.Fatal("grow over a closed file succeeded")
	}
	if len(s.data) != mapped {
		t.Fatalf("mapping is %d bytes after a failed grow, want %d", len(s.data), mapped)
	}
	got := make([]byte, len(payload))
	if err := s.readAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %q after a failed grow, want %q", got, payload)
	}
	// Close reports the file already closed; it still unmaps and removes.
	_ = s.Close()
}
