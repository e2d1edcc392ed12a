// Downsampled rows: when the compactor merges expired cold chunks, each
// per-leaf pre-aggregate bucket (agg.go) becomes one synthetic tuple in
// the output chunk — key = the leaf's low key bound, time = the bucket
// start, payload = the serialized bucket. The raw tuples are gone; the
// downsampled chunk answers coarse historical queries at bucket
// resolution in a fraction of the space.
package chunk

// DownsampledPayloadLen is the payload size of a downsampled row:
// [4B count][4B values][8B min][8B max][8B sum], big-endian.
const DownsampledPayloadLen = 32

// AppendDownsampledPayload serializes one pre-aggregate bucket as a
// downsampled-row payload.
func AppendDownsampledPayload(dst []byte, b AggBucket) []byte {
	dst = appendU32(dst, b.Count)
	dst = appendU32(dst, b.Values)
	dst = appendU64(dst, b.Min)
	dst = appendU64(dst, b.Max)
	return appendU64(dst, b.Sum)
}
