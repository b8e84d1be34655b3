package vliw

// ExecuteRef exposes the original *ir.Op-walking executor to the external
// test package: the differential tests run it against the decoded engine
// and require bit-identical results.
var ExecuteRef = executeRef

// NumXops counts the fused execute opcodes, the invalid zero one
// included.
const NumXops = int(numXops)

// Xops returns the fused opcode of each op of the region's decoded
// stream, in schedule order.
func Xops(cr *CompiledRegion) []int {
	xs := make([]int, len(cr.code))
	for i := range cr.code {
		xs[i] = int(cr.code[i].xop)
	}
	return xs
}

// XopName names fused opcode x.
func XopName(x int) string { return xop(x).String() }

// SetOperand overwrites one vreg field of the decoded op at slot: field 0
// is dst, 1 src0, 2 src1 and 3 the memory base.
func SetOperand(cr *CompiledRegion, slot, field int, v int32) {
	d := &cr.code[slot]
	*[...]*int32{&d.dst, &d.src0, &d.src1, &d.memBase}[field] = v
}

// Dropped returns the schedule indices of the ops the bake dropped from
// cr's stream.
func Dropped(cr *CompiledRegion) []int32 { return cr.dropped }
