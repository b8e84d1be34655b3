package aliashw

import (
	"testing"
	"unsafe"
)

// TestEntrySize pins an alias register at 40 bytes: every System's
// detector allocates one per register, so a field order that pads the
// struct must be a deliberate decision, not an accident.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 40 {
		t.Errorf("entry is %d bytes, want 40", got)
	}
}
