package em

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"maxrs/internal/codec"
)

// storeKinds enumerates every slot-store flavor; StoreMmap exercises the
// real mapping on linux and the documented file fallback elsewhere.
var storeKinds = []struct {
	name string
	kind StoreKind
}{
	{"mem", StoreMem},
	{"file", StoreFile},
	{"mmap", StoreMmap},
}

// sortedBlock returns n bytes of sorted 3-word records — the
// compressible shape the delta family targets.
func sortedBlock(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 0, n+24)
	x := rng.Float64()
	for len(buf) < n {
		x += rng.Float64()
		for w := 0; w < 3; w++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x+float64(w)))
		}
	}
	return buf[:n]
}

func TestStoreDiskRoundTrip(t *testing.T) {
	for _, sk := range storeKinds {
		for _, cands := range [][]codec.BlockCodec{nil, codec.DeltaFamily()} {
			d, err := NewStoreDisk(t.TempDir(), 64, sk.kind, cands)
			if err != nil {
				t.Fatalf("%s: %v", sk.name, err)
			}
			payloads := [][]byte{
				sortedBlock(1, 64),            // compressible, full
				sortedBlock(2, 40),            // compressible, partial
				bytes.Repeat([]byte{0xEE}, 7), // tiny partial
				nil,                           // empty write
			}
			ids := make([]BlockID, len(payloads))
			for i, p := range payloads {
				ids[i] = d.Alloc()
				if err := d.WriteBlock(ids[i], p); err != nil {
					t.Fatalf("%s: write %d: %v", sk.name, i, err)
				}
			}
			// An allocated, never-written block reads as zeros.
			blank := d.Alloc()
			buf := make([]byte, 64)
			if err := d.ReadBlock(blank, buf); err != nil {
				t.Fatalf("%s: read blank: %v", sk.name, err)
			}
			if !bytes.Equal(buf, make([]byte, 64)) {
				t.Fatalf("%s: unwritten block not zero", sk.name)
			}
			for i, p := range payloads {
				if err := d.ReadBlock(ids[i], buf); err != nil {
					t.Fatalf("%s: read %d: %v", sk.name, i, err)
				}
				want := make([]byte, 64)
				copy(want, p)
				if !bytes.Equal(buf, want) {
					t.Fatalf("%s: block %d round trip mismatch", sk.name, i)
				}
			}
			// Free + realloc re-zeroes, like every other backend.
			if err := d.Free(ids[0]); err != nil {
				t.Fatal(err)
			}
			if id := d.Alloc(); id != ids[0] {
				t.Fatalf("%s: expected free-list reuse", sk.name)
			}
			if err := d.ReadBlock(ids[0], buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, make([]byte, 64)) {
				t.Fatalf("%s: recycled block not zero", sk.name)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("%s: close: %v", sk.name, err)
			}
		}
	}
}

// TestStoreDiskTransferInvariance runs one scripted workload on the
// in-memory disk and every store variant: the counted transfers must be
// bit-identical — the store sits below the counters.
func TestStoreDiskTransferInvariance(t *testing.T) {
	script := func(t *testing.T, d *Disk) Stats {
		t.Helper()
		var ids []BlockID
		for i := 0; i < 6; i++ {
			ids = append(ids, d.Alloc())
		}
		buf := make([]byte, 128)
		for i, id := range ids {
			if err := d.WriteBlock(id, sortedBlock(int64(i), 32+i*16)); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			if err := d.ReadBlock(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Free(ids[2]); err != nil {
			t.Fatal(err)
		}
		id := d.Alloc()
		if err := d.WriteBlock(id, sortedBlock(9, 128)); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadBlock(id, buf); err != nil {
			t.Fatal(err)
		}
		return d.Stats()
	}

	want := script(t, MustNewDisk(128))

	for _, sk := range storeKinds {
		for _, cands := range [][]codec.BlockCodec{nil, codec.DeltaFamily()} {
			d, err := NewStoreDisk(t.TempDir(), 128, sk.kind, cands)
			if err != nil {
				t.Fatal(err)
			}
			if got := script(t, d); got != want {
				t.Errorf("%s (codecs=%d): stats %v, want %v", sk.name, len(cands), got, want)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStorePhysBytesCompressed pins the point of the subsystem: on
// sorted record data the delta store moves strictly fewer physical
// bytes than the fixed layout, and never more than uncompressed + the
// constant slot headers.
func TestStorePhysBytesCompressed(t *testing.T) {
	const blockSize = 4096
	d, err := NewStoreDisk(t.TempDir(), blockSize, StoreFile, codec.DeltaFamily())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 32
	block := sortedBlock(3, blockSize)
	buf := make([]byte, blockSize)
	for i := 0; i < n; i++ {
		id := d.Alloc()
		if err := d.WriteBlock(id, block); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadBlock(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	p := d.PhysIO()
	if !p.Measured {
		t.Fatal("store disk did not measure physical bytes")
	}
	if p.BlocksCompressed != n || p.BlocksRaw != 0 {
		t.Fatalf("compressed=%d raw=%d, want %d,0", p.BlocksCompressed, p.BlocksRaw, n)
	}
	uncompressed := uint64(n * blockSize)
	if p.WriteBytes >= uncompressed {
		t.Fatalf("WriteBytes=%d, want < uncompressed %d", p.WriteBytes, uncompressed)
	}
	if p.ReadBytes >= uncompressed {
		t.Fatalf("ReadBytes=%d, want < uncompressed %d", p.ReadBytes, uncompressed)
	}
	// The codec-less store is bounded by uncompressed + headers.
	d2, err := NewStoreDisk(t.TempDir(), blockSize, StoreFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	id := d2.Alloc()
	if err := d2.WriteBlock(id, block); err != nil {
		t.Fatal(err)
	}
	if p := d2.PhysIO(); p.WriteBytes != blockSize+slotHeaderSize || p.BlocksRaw != 1 {
		t.Fatalf("raw store phys = %+v", p)
	}
	// ResetStats zeroes the physical counters with the transfer counters.
	d.ResetStats()
	if p := d.PhysIO(); p.Bytes() != 0 || p.BlocksCompressed != 0 {
		t.Fatalf("phys counters survived ResetStats: %+v", p)
	}
}

// TestStoreDiskFaultComposition re-runs the canonical fault drills on a
// delta slot store: injection sits above the store, so corruption and
// torn writes land on logical content and the Disk-level checksums
// catch them exactly as on the plain backends.
func TestStoreDiskFaultComposition(t *testing.T) {
	newDisk := func(t *testing.T, plan FaultPlan) *Disk {
		t.Helper()
		d, err := NewStoreDisk(t.TempDir(), 64, StoreMmap, codec.DeltaFamily())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		d.SetRetryPolicy(RetryPolicy{MaxRetries: 3})
		d.SetChecksums(true)
		d.InjectFaults(plan)
		return d
	}

	t.Run("corrupt read recovered", func(t *testing.T) {
		d := newDisk(t, FaultPlan{At: []FaultAt{{Op: OpRead, Transfer: 1, Kind: FaultCorrupt}}})
		id := d.Alloc()
		src := sortedBlock(4, 48)
		if err := d.WriteBlock(id, src); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if err := d.ReadBlock(id, buf); err != nil {
			t.Fatalf("read through one-shot corruption: %v", err)
		}
		if !bytes.Equal(buf[:len(src)], src) {
			t.Fatal("recovered read returned damaged data")
		}
		if fs := d.FaultStats(); fs.ChecksumFailures != 1 || fs.ReadRetries != 1 {
			t.Fatalf("checksumFails=%d retries=%d, want 1,1", fs.ChecksumFailures, fs.ReadRetries)
		}
	})

	t.Run("torn write detected", func(t *testing.T) {
		d := newDisk(t, FaultPlan{At: []FaultAt{{Op: OpWrite, Transfer: 1, Kind: FaultTorn}}})
		id := d.Alloc()
		if err := d.WriteBlock(id, sortedBlock(5, 48)); err != nil {
			t.Fatalf("torn write should report success: %v", err)
		}
		buf := make([]byte, 64)
		if err := d.ReadBlock(id, buf); !errors.Is(err, ErrBlockCorrupt) {
			t.Fatalf("read of torn block = %v, want ErrBlockCorrupt", err)
		}
		if err := d.WriteBlock(id, sortedBlock(6, 48)); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadBlock(id, buf); err != nil {
			t.Fatalf("read after clean rewrite: %v", err)
		}
	})

	t.Run("transient retried", func(t *testing.T) {
		d := newDisk(t, FaultPlan{At: []FaultAt{{Op: OpWrite, Transfer: 1, Kind: FaultTransient}}})
		id := d.Alloc()
		if err := d.WriteBlock(id, sortedBlock(7, 48)); err != nil {
			t.Fatalf("write through transient fault: %v", err)
		}
		if fs := d.FaultStats(); fs.WriteRetries != 1 {
			t.Fatalf("WriteRetries=%d, want 1", fs.WriteRetries)
		}
	})
}

// TestStoreMediaCorruptionCaught flips a persisted payload byte under
// the injector-free store: the slot's own CRC32C must refuse to decode
// silently even with Disk checksums off.
func TestStoreMediaCorruptionCaught(t *testing.T) {
	d, err := NewStoreDisk(t.TempDir(), 64, StoreMem, codec.DeltaFamily())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id := d.Alloc()
	if err := d.WriteBlock(id, sortedBlock(8, 64)); err != nil {
		t.Fatal(err)
	}
	sb := d.storeOf()
	ms := sb.store.(*memSlots)
	ms.data[slotHeaderSize+3] ^= 0x40 // damage the payload on "media"
	buf := make([]byte, 64)
	if err := d.ReadBlock(id, buf); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("read of damaged slot = %v, want ErrBlockCorrupt", err)
	}
	// Unknown codec ids are corruption, not a crash.
	if err := d.WriteBlock(id, sortedBlock(8, 64)); err != nil {
		t.Fatal(err)
	}
	ms.data[0] = 0xFE // no codec registered at 254
	if err := d.ReadBlock(id, buf); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("read with unknown codec id = %v, want ErrBlockCorrupt", err)
	}
}

// TestMmapStoreGrowRemap forces several geometric remaps and checks
// every block survives them — the truncate/mmap/munmap cycle under the
// exclusive grow lock.
func TestMmapStoreGrowRemap(t *testing.T) {
	const blockSize = 512
	d, err := NewStoreDisk(t.TempDir(), blockSize, StoreMmap, codec.DeltaFamily())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 4096 // ≳ 2 MiB of slots: several doublings past the initial map
	ids := make([]BlockID, n)
	for i := range ids {
		ids[i] = d.Alloc()
		if err := d.WriteBlock(ids[i], sortedBlock(int64(i), blockSize)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	buf := make([]byte, blockSize)
	for i, id := range ids {
		if err := d.ReadBlock(id, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(buf, sortedBlock(int64(i), blockSize)) {
			t.Fatalf("block %d damaged across remaps", i)
		}
	}
}

// errDiskFull is the grow failure of failGrowSlots.
var errDiskFull = errors.New("disk full")

// failGrowSlots is an in-memory slot store that cannot grow past limit
// bytes: a full disk.
type failGrowSlots struct {
	memSlots
	limit int64
}

func (s *failGrowSlots) grow(size int64) error {
	if size > s.limit {
		return errDiskFull
	}
	return s.memSlots.grow(size)
}

// TestStoreGrowFailureSurfaces pins the grow-failure contract: a store
// that cannot grow fails the stream writing into it with an error
// wrapping the cause — no panic — the failed block is returned to the
// disk, and the store keeps serving once it can grow again.
func TestStoreGrowFailureSurfaces(t *testing.T) {
	const blockSize = 64
	store := &failGrowSlots{limit: 3 * (slotHeaderSize + blockSize)}
	d := &Disk{blockSize: blockSize, backend: newStoreBackend(store, "mem", blockSize, nil)}
	defer d.Close()
	f := NewFile(d)
	w := f.NewWriter()
	if _, err := w.Write(make([]byte, 5*blockSize)); !errors.Is(err, errDiskFull) {
		t.Fatalf("Write on a full store = %v, want an error wrapping %v", err, errDiskFull)
	}
	if err := w.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close on a full store = %v, want an error wrapping %v", err, errDiskFull)
	}
	if got := f.Blocks(); got != 3 {
		t.Fatalf("file holds %d blocks, want the 3 that fit", got)
	}
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	if n := d.InUse(); n != 0 {
		t.Fatalf("InUse = %d after release, want 0", n)
	}
	store.limit = math.MaxInt64
	payload := sortedBlock(3, 5*blockSize)
	g, err := WriteAll(d, byteCodec{}, payload)
	if err != nil {
		t.Fatalf("write after the store can grow again: %v", err)
	}
	got, err := ReadAll(g, byteCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch after a failed grow")
	}
}

// TestStoreDiskStreams runs the em stream layer (Writer, Reader) over a
// store disk and checks content and counted transfers match the
// in-memory disk.
func TestStoreDiskStreams(t *testing.T) {
	payload := sortedBlock(10, 10000)

	run := func(t *testing.T, d *Disk) Stats {
		t.Helper()
		defer d.Close()
		f := NewFile(d)
		w := f.NewWriter()
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(f.NewReader())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("stream round trip mismatch")
		}
		return d.Stats()
	}

	want := run(t, MustNewDisk(256))
	for _, sk := range storeKinds {
		d, err := NewStoreDisk(t.TempDir(), 256, sk.kind, codec.DeltaFamily())
		if err != nil {
			t.Fatal(err)
		}
		if got := run(t, d); got != want {
			t.Errorf("%s: stream stats %v, want %v", sk.name, got, want)
		}
	}
}

// TestStorageInfo pins the introspection strings maxrsd surfaces.
func TestStorageInfo(t *testing.T) {
	mem := MustNewDisk(64)
	if got := mem.StorageInfo(); got != (StorageInfo{Backend: "mem", Codec: "none"}) {
		t.Fatalf("mem disk info = %+v", got)
	}
	fd, err := NewFileBackedDisk(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if got := fd.StorageInfo(); got != (StorageInfo{Backend: "store/file", Codec: "none"}) {
		t.Fatalf("file disk info = %+v", got)
	}
	if p := mem.PhysIO(); p.Measured {
		t.Fatal("in-memory disk claims measured physical bytes")
	}
	if err := fd.WriteBlock(fd.Alloc(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if p := fd.PhysIO(); !p.Measured || p.WriteBytes != slotHeaderSize+1 {
		t.Fatalf("file disk physical bytes = %+v, want measured %d", p, slotHeaderSize+1)
	}
	sd, err := NewStoreDisk(t.TempDir(), 64, StoreFile, codec.DeltaFamily())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if got := sd.StorageInfo(); got != (StorageInfo{Backend: "store/file", Codec: "delta"}) {
		t.Fatalf("store disk info = %+v", got)
	}
	// Fault injection must not hide the store from introspection.
	sd.InjectFaults(FaultPlan{})
	if got := sd.StorageInfo(); got.Backend != "store/file" {
		t.Fatalf("store info through injector = %+v", got)
	}
	md, err := NewStoreDisk(t.TempDir(), 64, StoreMmap, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()
	info := md.StorageInfo()
	if info.Backend != "store/mmap" && info.Backend != "store/file" {
		t.Fatalf("mmap disk backend = %q", info.Backend)
	}
	if info.Codec != "none" {
		t.Fatalf("codec-less mmap disk codec = %q", info.Codec)
	}
}
