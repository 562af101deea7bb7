package em

import (
	"context"
	"errors"
	"testing"
)

// TestWriterCancelAtBlockGranularity verifies a cancelled context stops a
// writer before its next block transfer and that releasing the partial
// file leaves nothing allocated.
func TestWriterCancelAtBlockGranularity(t *testing.T) {
	d := MustNewDisk(64)
	ctx, cancel := context.WithCancel(context.Background())
	env := Env{Disk: d, M: 256, Ctx: ctx}
	f := env.NewFile()
	w := f.NewWriter()
	if _, err := w.Write(make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	blocksBefore, writesBefore := f.Blocks(), d.Stats().Writes
	cancel()
	if _, err := w.Write(make([]byte, 200)); !errors.Is(err, context.Canceled) {
		t.Fatalf("write after cancel: err = %v, want context.Canceled", err)
	}
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("close after cancel: err = %v, want context.Canceled", err)
	}
	// No block was written or appended past the cancellation check.
	if got := f.Blocks(); got != blocksBefore {
		t.Fatalf("%d blocks after cancel, want %d (no transfer past the check)", got, blocksBefore)
	}
	if got := d.Stats().Writes; got != writesBefore {
		t.Fatalf("%d writes after cancel, want %d", got, writesBefore)
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	if n := d.InUse(); n != 0 {
		t.Fatalf("%d blocks in use after release", n)
	}
}

// TestReaderCancelAtBlockGranularity verifies a reader consumes its
// current block but refuses to fetch the next one once the context is
// cancelled.
func TestReaderCancelAtBlockGranularity(t *testing.T) {
	d := MustNewDisk(64)
	f := NewFile(d)
	w := f.NewWriter()
	if _, err := w.Write(make([]byte, 64*4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	env := Env{Disk: d, M: 256, Ctx: ctx}
	rr, err := OpenRecordReader(env, f, byteCodec{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, err := rr.ReadBatch(buf); err != nil || n != 64 {
		t.Fatalf("first block: n=%d err=%v", n, err)
	}
	readsBefore := d.Stats().Reads
	cancel()
	if _, err := rr.Read(); !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel: err = %v, want context.Canceled", err)
	}
	if got := d.Stats().Reads; got != readsBefore {
		t.Fatalf("%d reads after cancel, want %d", got, readsBefore)
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
}

// byteCodec is a 1-byte test codec.
type byteCodec struct{}

func (byteCodec) Size() int                 { return 1 }
func (byteCodec) Encode(dst []byte, v byte) { dst[0] = v }
func (byteCodec) Decode(src []byte) byte    { return src[0] }
