package region

import (
	"testing"
	"unsafe"
)

// TestInstSize pins a superblock instruction at 48 bytes: Form allocates
// one per instruction of every region it forms, so a field that pads the
// struct, or one nothing reads, must be a deliberate decision.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 48 {
		t.Errorf("Inst is %d bytes, want 48", got)
	}
}
