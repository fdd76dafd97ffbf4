package cleaner

// PoolState is the free-pool snapshot a Pacer sees when deciding how to
// admit a user write.
type PoolState struct {
	// Free is the current free-segment count.
	Free int
	// EmergencyFloor is the threshold below which writes endanger the
	// cleaner's own relocation headroom.
	EmergencyFloor int
}

// Admission is a Pacer's decision for one write or one batch.
type Admission struct {
	// Block applies backpressure: the writer waits until the cleaner
	// recovers the emergency floor (or space is exhausted).
	Block bool
}

// Pacer decides how user writes are admitted while cleaning runs in the
// background: consulted once per write, once per batch (admission is
// advisory — space for a whole batch is reserved later, under the engine
// lock). Implementations must be safe for concurrent use. It is an
// interface so tests can script stalls; the engines all run FloorPacer.
type Pacer interface {
	Admit(st PoolState) Admission
}

// FloorPacer is the admission controller: writes are admitted while the
// free pool is at or above the emergency floor, and blocked below it.
// Cleaning itself therefore never adds latency to writes — only imminent
// space exhaustion does.
type FloorPacer struct{}

// Admit implements Pacer.
func (FloorPacer) Admit(st PoolState) Admission {
	return Admission{Block: st.Free < st.EmergencyFloor}
}
