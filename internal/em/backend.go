package em

// backend is the physical storage under a Disk. The default is in-process
// memory (fast, hermetic — the transfer counters are the measurement, per
// §7.1); the slot store (store.go) keeps blocks in a real OS file so the
// simulator can also run genuinely out of core.
//
// Concurrency contract: grow is only called with the Disk's write lock
// held; read and write are called with its read lock held and so may run
// concurrently with each other (on distinct blocks) but never with grow.
type backend interface {
	read(id BlockID, dst []byte) error
	write(id BlockID, src []byte) error
	// grow ensures capacity for block id.
	grow(id BlockID) error
	// Close releases backend resources.
	Close() error
}

// blockFreer is the optional backend capability of dropping a released
// block's storage immediately (memBackend, and any wrapper forwarding to
// one). Disk.Free feature-tests for it so large intermediates are
// collected even through a fault-injecting wrapper.
type blockFreer interface {
	free(id BlockID)
}

// memBackend keeps blocks in process memory.
type memBackend struct {
	blockSize int
	blocks    [][]byte
}

func (m *memBackend) grow(id BlockID) error {
	for int(id) >= len(m.blocks) {
		m.blocks = append(m.blocks, nil)
	}
	if m.blocks[id] == nil {
		m.blocks[id] = make([]byte, m.blockSize)
	} else {
		clear(m.blocks[id])
	}
	return nil
}

func (m *memBackend) read(id BlockID, dst []byte) error {
	copy(dst, m.blocks[id])
	return nil
}

func (m *memBackend) write(id BlockID, src []byte) error {
	b := m.blocks[id]
	copy(b, src)
	for i := len(src); i < len(b); i++ {
		b[i] = 0
	}
	return nil
}

// free drops the storage of a released block. Called with the Disk's write
// lock held.
func (m *memBackend) free(id BlockID) {
	if int(id) < len(m.blocks) {
		m.blocks[id] = nil
	}
}

func (m *memBackend) Close() error {
	m.blocks = nil
	return nil
}
