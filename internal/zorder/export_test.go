package zorder

// Compact inverts Interleave: it gathers the even bit positions of v into a
// 32-bit word.
func Compact(v uint64) uint32 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0F0F0F0F0F0F0F0F
	v = (v | v>>4) & 0x00FF00FF00FF00FF
	v = (v | v>>8) & 0x0000FFFF0000FFFF
	v = (v | v>>16) & 0x00000000FFFFFFFF
	return uint32(v)
}

// Decode splits a z-code back into its x and y components.
func Decode(z uint64) (x, y uint32) {
	return Compact(z), Compact(z >> 1)
}
