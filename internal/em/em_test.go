package em

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDiskValidation(t *testing.T) {
	if _, err := NewDisk(0); err == nil {
		t.Fatal("NewDisk(0) should fail")
	}
	if _, err := NewDisk(-5); err == nil {
		t.Fatal("NewDisk(-5) should fail")
	}
	if _, err := NewDisk(512); err != nil {
		t.Fatalf("NewDisk(512): %v", err)
	}
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(4096, 4096); err == nil {
		t.Fatal("M < 2B should fail")
	}
	e, err := NewEnv(4096, 8192)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	if e.MemBlocks() != 2 {
		t.Fatalf("MemBlocks = %d, want 2", e.MemBlocks())
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := (Env{}).Validate(); err == nil {
		t.Fatal("zero Env should not validate")
	}
}

func TestBlockReadWriteCounts(t *testing.T) {
	d := MustNewDisk(64)
	id := d.Alloc()
	if got := d.Stats().Total(); got != 0 {
		t.Fatalf("alloc should be free, got %d transfers", got)
	}
	src := bytes.Repeat([]byte{0xAB}, 64)
	if err := d.WriteBlock(id, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if err := d.ReadBlock(id, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("read back mismatch")
	}
	if s := d.Stats(); s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("stats = %v, want 1 read 1 write", s)
	}
}

func TestBlockErrors(t *testing.T) {
	d := MustNewDisk(32)
	buf := make([]byte, 32)
	if err := d.ReadBlock(7, buf); err == nil {
		t.Fatal("read of unallocated block should fail")
	}
	id := d.Alloc()
	if err := d.WriteBlock(id, make([]byte, 33)); err == nil {
		t.Fatal("oversized write should fail")
	}
	if err := d.ReadBlock(id, make([]byte, 31)); err == nil {
		t.Fatal("undersized read buffer should fail")
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadBlock(id, buf); err == nil {
		t.Fatal("read of freed block should fail")
	}
	if err := d.Free(id); err == nil {
		t.Fatal("double free should fail")
	}
}

func TestAllocReusesFreedBlocks(t *testing.T) {
	d := MustNewDisk(32)
	a := d.Alloc()
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	b := d.Alloc()
	if a != b {
		t.Fatalf("expected freed block %d to be reused, got %d", a, b)
	}
	if d.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", d.InUse())
	}
}

func TestFileRoundTrip(t *testing.T) {
	d := MustNewDisk(16)
	f := NewFile(d)
	w := f.NewWriter()
	payload := []byte("the quick brown fox jumps over the lazy dog")
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", f.Size(), len(payload))
	}
	wantBlocks := (len(payload) + 15) / 16
	if f.Blocks() != wantBlocks {
		t.Fatalf("Blocks = %d, want %d", f.Blocks(), wantBlocks)
	}
	got, err := io.ReadAll(f.NewReader())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, want %q", got, payload)
	}
}

func TestFileTransferAccounting(t *testing.T) {
	d := MustNewDisk(100)
	f := NewFile(d)
	w := f.NewWriter()
	data := make([]byte, 1000) // exactly 10 blocks
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Writes != 10 {
		t.Fatalf("writes = %d, want 10", s.Writes)
	}
	d.ResetStats()
	if _, err := io.ReadAll(f.NewReader()); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Reads != 10 || s.Writes != 0 {
		t.Fatalf("stats after scan = %v, want 10 reads", s)
	}
}

func TestWriterAfterClose(t *testing.T) {
	d := MustNewDisk(16)
	f := NewFile(d)
	w := f.NewWriter()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
	if _, err := w.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("write after close = %v, want ErrClosed", err)
	}
}

func TestFileRelease(t *testing.T) {
	d := MustNewDisk(16)
	f := NewFile(d)
	w := f.NewWriter()
	if _, err := w.Write(make([]byte, 160)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if d.InUse() != 10 {
		t.Fatalf("InUse = %d, want 10", d.InUse())
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	if d.InUse() != 0 {
		t.Fatalf("InUse after release = %d, want 0", d.InUse())
	}
	if f.Size() != 0 || f.Blocks() != 0 {
		t.Fatal("released file should be empty")
	}
}

// int64Codec is a minimal test codec.
type int64Codec struct{}

func (int64Codec) Size() int                { return 8 }
func (int64Codec) Encode(d []byte, v int64) { binary.LittleEndian.PutUint64(d, uint64(v)) }
func (int64Codec) Decode(s []byte) int64    { return int64(binary.LittleEndian.Uint64(s)) }

func TestRecordRoundTrip(t *testing.T) {
	d := MustNewDisk(64)
	vals := make([]int64, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	f, err := WriteAll[int64](d, int64Codec{}, vals)
	if err != nil {
		t.Fatal(err)
	}
	if RecordCount(f, 8) != 1000 {
		t.Fatalf("RecordCount = %d, want 1000", RecordCount(f, 8))
	}
	got, err := ReadAll[int64](f, int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("len = %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("record %d: got %d want %d", i, got[i], vals[i])
		}
	}
}

func TestRecordReaderEOF(t *testing.T) {
	d := MustNewDisk(64)
	f, err := WriteAll[int64](d, int64Codec{}, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRecordReader[int64](f, int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rr.Read(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rr.Read(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	// EOF is sticky.
	if _, err := rr.Read(); err != io.EOF {
		t.Fatalf("want sticky io.EOF, got %v", err)
	}
}

func TestRecordCodecValidation(t *testing.T) {
	d := MustNewDisk(4) // record (8B) larger than block (4B)
	f := NewFile(d)
	if _, err := NewRecordWriter[int64](f, int64Codec{}); err == nil {
		t.Fatal("record larger than block should fail")
	}
	if _, err := NewRecordReader[int64](f, int64Codec{}); err == nil {
		t.Fatal("record larger than block should fail")
	}
}

// Property: any byte stream written through the one-block Writer reads back
// identically through the one-block Reader, for arbitrary block sizes.
func TestQuickStreamRoundTrip(t *testing.T) {
	prop := func(data []byte, blockSize uint8) bool {
		bs := int(blockSize%250) + 1
		d := MustNewDisk(bs)
		f := NewFile(d)
		w := f.NewWriter()
		if _, err := w.Write(data); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		got, err := io.ReadAll(f.NewReader())
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(got) == 0
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: transfer accounting for a sequential write-then-read of n bytes
// is exactly 2*ceil(n/B).
func TestQuickTransferFormula(t *testing.T) {
	prop := func(n uint16, blockSize uint8) bool {
		bs := int(blockSize%200) + 1
		d := MustNewDisk(bs)
		f := NewFile(d)
		w := f.NewWriter()
		if _, err := w.Write(make([]byte, int(n))); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		if _, err := io.ReadAll(f.NewReader()); err != nil {
			return false
		}
		want := uint64((int(n) + bs - 1) / bs)
		s := d.Stats()
		return s.Writes == want && s.Reads == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolBasics(t *testing.T) {
	d := MustNewDisk(8)
	ids := make([]BlockID, 4)
	for i := range ids {
		ids[i] = d.Alloc()
		if err := d.WriteBlock(ids[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	p, err := NewBufferPool(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Miss, miss, hit.
	if _, err := p.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	if h, m := p.HitRate(); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", h, m)
	}
	if s := d.Stats(); s.Reads != 2 {
		t.Fatalf("reads = %d, want 2", s.Reads)
	}
	// ids[1] is LRU; touching ids[2] evicts it (clean, no write).
	if _, err := p.Get(ids[2]); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Writes != 0 {
		t.Fatalf("clean eviction should not write, got %d", s.Writes)
	}
	// Re-fetching ids[1] is a miss again.
	if _, err := p.Get(ids[1]); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Reads != 4 {
		t.Fatalf("reads = %d, want 4", s.Reads)
	}
}

func TestBufferPoolDirtyWriteBack(t *testing.T) {
	d := MustNewDisk(8)
	a, b, c := d.Alloc(), d.Alloc(), d.Alloc()
	d.ResetStats()
	p, err := NewBufferPool(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := p.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 0x77
	if err := p.MarkDirty(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(b); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(c); err != nil { // evicts dirty a → 1 write
		t.Fatal(err)
	}
	if s := d.Stats(); s.Writes != 1 {
		t.Fatalf("writes = %d, want 1 (dirty eviction)", s.Writes)
	}
	// Verify the write-back landed.
	got := make([]byte, 8)
	if err := d.ReadBlock(a, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x77 {
		t.Fatalf("write-back lost: got %#x", got[0])
	}
}

func TestBufferPoolGetNewAndFlush(t *testing.T) {
	d := MustNewDisk(8)
	p, err := NewBufferPool(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	id := d.Alloc()
	buf, err := p.GetNew(id)
	if err != nil {
		t.Fatal(err)
	}
	buf[3] = 9
	if s := d.Stats(); s.Total() != 0 {
		t.Fatalf("GetNew should be free, got %v", s)
	}
	if _, err := p.GetNew(id); err == nil {
		t.Fatal("GetNew of cached block should fail")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Writes != 1 {
		t.Fatalf("flush writes = %d, want 1", s.Writes)
	}
	got := make([]byte, 8)
	if err := d.ReadBlock(id, got); err != nil {
		t.Fatal(err)
	}
	if got[3] != 9 {
		t.Fatal("flush lost data")
	}
}

func TestBufferPoolValidation(t *testing.T) {
	d := MustNewDisk(8)
	if _, err := NewBufferPool(d, 0); err == nil {
		t.Fatal("0-frame pool should fail")
	}
	p, err := NewBufferPool(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MarkDirty(99); err == nil {
		t.Fatal("MarkDirty of uncached block should fail")
	}
}

// Property: reading blocks through a pool of f frames with a cyclic access
// pattern over k distinct blocks costs k reads when k ≤ f (everything
// cached) and one read per access when the pattern is a strict LRU-killer
// cycle with k = f+1.
func TestBufferPoolLRUCycles(t *testing.T) {
	for _, frames := range []int{1, 2, 3, 8} {
		for _, k := range []int{1, frames, frames + 1} {
			if k < 1 {
				continue
			}
			d := MustNewDisk(8)
			ids := make([]BlockID, k)
			for i := range ids {
				ids[i] = d.Alloc()
			}
			d.ResetStats()
			p, err := NewBufferPool(d, frames)
			if err != nil {
				t.Fatal(err)
			}
			const rounds = 5
			for r := 0; r < rounds; r++ {
				for _, id := range ids {
					if _, err := p.Get(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			got := d.Stats().Reads
			var want uint64
			if k <= frames {
				want = uint64(k) // cold misses only
			} else {
				want = uint64(k * rounds) // every access misses
			}
			if got != want {
				t.Errorf("frames=%d k=%d: reads=%d, want %d", frames, k, got, want)
			}
		}
	}
}

// TestBufferPoolFrameReuse checks the recycled-frame contract: once the
// pool has evicted a frame, subsequent misses reuse its slice, and GetNew
// frames start zeroed even when recycled.
func TestBufferPoolFrameReuse(t *testing.T) {
	d := MustNewDisk(64)
	ids := make([]BlockID, 4)
	buf := make([]byte, 64)
	for i := range ids {
		ids[i] = d.Alloc()
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		if err := d.WriteBlock(ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewBufferPool(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Touch all four blocks: two evictions occur, so two slices recycle.
	var seen []*byte
	for _, id := range ids {
		data, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] == 0 {
			t.Fatalf("block %d read back zero", id)
		}
		seen = append(seen, &data[0])
	}
	// The miss for ids[3] follows the pool's first eviction (triggered
	// while inserting ids[2]) and must recycle that frame's slice.
	if seen[3] != seen[0] && seen[3] != seen[1] {
		t.Error("miss after an eviction did not recycle the evicted frame slice")
	}
	// A recycled GetNew frame must be zeroed despite the dirty reuse.
	id := d.Alloc()
	data, err := p.GetNew(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("GetNew frame byte %d = %d, want 0", i, b)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}
