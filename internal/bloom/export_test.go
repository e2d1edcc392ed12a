package bloom

// Reset clears all bits, reusing the allocation.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
}
