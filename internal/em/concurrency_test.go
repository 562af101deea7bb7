package em

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// TestInterleavedWritersDoNotCorruptBlocks is the regression test for the
// pooled slot buffers of the file store's write path: two writers on the
// same disk, flushing alternately (as the division phase's per-child
// writers do), must never see each other's payloads — with a single shared
// slot buffer the second writer's copy-in could clobber the first's bytes
// before its WriteAt ran.
func TestInterleavedWritersDoNotCorruptBlocks(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			var d *Disk
			var err error
			if backend == "file" {
				d, err = NewFileBackedDisk(t.TempDir(), 64)
			} else {
				d, err = NewDisk(64)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			fa, fb := NewFile(d), NewFile(d)
			wa, wb := fa.NewWriter(), fb.NewWriter()
			// 48-byte payloads on 64-byte blocks: every flush is a partial
			// write.
			for i := 0; i < 100; i++ {
				pa := bytes.Repeat([]byte{byte(i)}, 48)
				pb := bytes.Repeat([]byte{byte(200 - i)}, 48)
				if _, err := wa.Write(pa); err != nil {
					t.Fatal(err)
				}
				if _, err := wb.Write(pb); err != nil {
					t.Fatal(err)
				}
			}
			if err := wa.Close(); err != nil {
				t.Fatal(err)
			}
			if err := wb.Close(); err != nil {
				t.Fatal(err)
			}

			checkStream := func(f *File, value func(i int) byte) {
				t.Helper()
				r := f.NewReader()
				got, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 100*48 {
					t.Fatalf("stream length %d, want %d", len(got), 100*48)
				}
				for i := 0; i < 100; i++ {
					for j := 0; j < 48; j++ {
						if got[i*48+j] != value(i) {
							t.Fatalf("payload %d byte %d = %d, want %d",
								i, j, got[i*48+j], value(i))
						}
					}
				}
			}
			checkStream(fa, func(i int) byte { return byte(i) })
			checkStream(fb, func(i int) byte { return byte(200 - i) })
		})
	}
}

// TestConcurrentWriters drives many goroutines, each writing and then
// reading back its own file on one shared disk. Run under -race this is
// the data-race test for the Disk's locking and the file store's pooled
// buffers.
func TestConcurrentWriters(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			var d *Disk
			var err error
			if backend == "file" {
				d, err = NewFileBackedDisk(t.TempDir(), 128)
			} else {
				d, err = NewDisk(128)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			const workers = 8
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs[w] = func() error {
						f := NewFile(d)
						wr := f.NewWriter()
						// 100-byte payloads: partial flushes throughout.
						payload := bytes.Repeat([]byte{byte(w + 1)}, 100)
						for i := 0; i < 50; i++ {
							if _, err := wr.Write(payload); err != nil {
								return err
							}
						}
						if err := wr.Close(); err != nil {
							return err
						}
						got, err := io.ReadAll(f.NewReader())
						if err != nil {
							return err
						}
						if len(got) != 50*100 {
							return fmt.Errorf("worker %d: length %d", w, len(got))
						}
						for i, b := range got {
							if b != byte(w+1) {
								return fmt.Errorf("worker %d: byte %d = %d", w, i, b)
							}
						}
						return f.Release()
					}()
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := d.InUse(); got != 0 {
				t.Fatalf("InUse = %d after all files released", got)
			}
		})
	}
}

// TestPipelineConcurrentStreams runs the parallel solver's stream usage:
// many goroutines, each repeatedly pushing a file of random length (empty
// files included) through write, read-back and release on one shared
// disk, so freed blocks are reallocated across workers. Streams are
// synchronous; under -race this checks that block reuse between workers
// never hands one worker another's bytes.
func TestPipelineConcurrentStreams(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			var d *Disk
			var err error
			if backend == "file" {
				d, err = NewFileBackedDisk(t.TempDir(), 128)
			} else {
				d, err = NewDisk(128)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			const workers = 8
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					errs[w] = func() error {
						for iter := 0; iter < 20; iter++ {
							payload := make([]byte, rng.Intn(2000))
							rng.Read(payload)
							f := NewFile(d)
							wr := f.NewWriter()
							// 100-byte writes: partial flushes throughout.
							for off := 0; off < len(payload); off += 100 {
								if _, err := wr.Write(payload[off:min(off+100, len(payload))]); err != nil {
									return err
								}
							}
							if err := wr.Close(); err != nil {
								return err
							}
							got, err := io.ReadAll(f.NewReader())
							if err != nil {
								return err
							}
							if !bytes.Equal(got, payload) {
								return fmt.Errorf("worker %d iter %d: read back %d bytes != written %d", w, iter, len(got), len(payload))
							}
							if err := f.Release(); err != nil {
								return err
							}
						}
						return nil
					}()
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := d.InUse(); got != 0 {
				t.Fatalf("InUse = %d after all files released", got)
			}
		})
	}
}

// TestAbandonedStreams drops a reader mid-file and a writer without
// Close on the file-backed disk: neither may disturb later use of the
// disk, and releasing the abandoned writer's file reclaims the blocks it
// already flushed.
func TestAbandonedStreams(t *testing.T) {
	d, err := NewFileBackedDisk(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	data := make([]byte, 64*10)
	rand.New(rand.NewSource(1)).Read(data)
	f := NewFile(d)
	w := f.NewWriter()
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Abandon a reader after one block.
	if _, err := f.NewReader().Read(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// Abandon a writer with a buffered partial block (no Close).
	f2 := NewFile(d)
	if _, err := f2.NewWriter().Write(data[:64*3+10]); err != nil {
		t.Fatal(err)
	}
	// Fresh streams on the same disk still work.
	got, err := io.ReadAll(f.NewReader())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch after abandoned streams")
	}
	if err := f2.Release(); err != nil {
		t.Fatal(err)
	}
	if n := d.InUse(); n != f.Blocks() {
		t.Fatalf("InUse = %d after releasing the abandoned file, want %d", n, f.Blocks())
	}
}

// TestConcurrentStatsAreExact checks that the atomic tally loses no
// transfers under concurrency: W workers each writing and reading back K
// full blocks must count exactly 2·W·K transfers.
func TestConcurrentStatsAreExact(t *testing.T) {
	d := MustNewDisk(64)
	const workers, blocks = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < blocks; i++ {
				id := d.Alloc()
				if err := d.WriteBlock(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := d.ReadBlock(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := d.Free(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := d.Stats()
	if s.Reads != workers*blocks || s.Writes != workers*blocks {
		t.Fatalf("stats %v, want %d reads and %d writes", s, workers*blocks, workers*blocks)
	}
	if d.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", d.InUse())
	}
}
