package queryexec

import (
	"slices"

	"waterwheel/internal/model"
)

// Policy plans how a query's chunk subqueries are offered to the query
// servers. Plan returns, for each server, the ordered list of subquery
// indices that server walks first, and, for each subquery, its owner: the
// server that ranks it first. During execution every server's workers walk
// its list and then sweep the rest, atomically claiming entries from the
// query's shared pending set (§IV-C). An owned subquery is
// claimed by its owner, or stolen by another server only while the owner
// has no free worker for the query (all its workers are executing) or has
// finished its pass over its list — delay scheduling without the delay, so
// an idle deployment runs every chunk on the one server whose cache holds
// it, and a busy owner still sheds load. A nil owner slice leaves every
// subquery to whichever server claims it first: the shared-queue,
// round-robin and hashing baselines of §VI-C2, whose servers take what is
// left pending elsewhere once their own list is done.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Plan builds per-server preference lists and the owner (an index into
	// servers) of each subquery, or nil. locations[i] holds the cluster
	// nodes storing replicas of subqueries[i]'s chunk.
	Plan(subqueries []*model.SubQuery, locations [][]int, servers []ServerPlacement) (pref [][]int, owner []int)
}

// ServerPlacement describes a query server to the planner.
type ServerPlacement struct {
	ID   int
	Node int
}

// RoundRobin lists subquery i for server i mod n — no locality (paper
// baseline: worst of the four).
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "round-robin" }

// Plan implements Policy.
func (RoundRobin) Plan(sqs []*model.SubQuery, _ [][]int, servers []ServerPlacement) ([][]int, []int) {
	pref := make([][]int, len(servers))
	for i := range sqs {
		s := i % len(servers)
		pref[s] = append(pref[s], i)
	}
	return pref, nil
}

// Hashing lists each subquery for the server hash(chunkID) mod n:
// consistent chunk→server mapping retains cache locality across queries,
// but it names no owner, so a server done with its list takes whatever is
// still pending, whoever's cache holds it.
type Hashing struct{}

// Name implements Policy.
func (Hashing) Name() string { return "hashing" }

// Plan implements Policy.
func (Hashing) Plan(sqs []*model.SubQuery, _ [][]int, servers []ServerPlacement) ([][]int, []int) {
	pref := make([][]int, len(servers))
	for i, sq := range sqs {
		s := int(mix(uint64(sq.Chunk)) % uint64(len(servers)))
		pref[s] = append(pref[s], i)
	}
	return pref, nil
}

// SharedQueue places all subqueries in one global FIFO every server drains:
// perfect load balance, no locality.
type SharedQueue struct{}

// Name implements Policy.
func (SharedQueue) Name() string { return "shared-queue" }

// Plan implements Policy.
func (SharedQueue) Plan(sqs []*model.SubQuery, _ [][]int, servers []ServerPlacement) ([][]int, []int) {
	all := make([]int, len(sqs))
	for i := range all {
		all[i] = i
	}
	pref := make([][]int, len(servers))
	for s := range pref {
		pref[s] = all
	}
	return pref, nil
}

// LADA is the locality-aware dispatch algorithm (paper §IV-C). For each
// subquery it shuffles the co-located servers S(q) and the remaining
// servers S̄(q) with permutations seeded by the chunk ID, concatenates them
// into S⃗(q), and uses each server's offset in S⃗(q) as the rank of q in
// that server's preference array, and the server at offset 0 owns q. Every
// server's list contains every subquery, so a server whose own work is done
// steals from a saturated owner (load balance); co-located servers rank
// first (chunk locality); the chunk-ID-seeded shuffle makes the owner and
// the preference consistent across queries yet different across servers
// (cache locality).
type LADA struct{}

// Name implements Policy.
func (LADA) Name() string { return "lada" }

// Plan implements Policy.
func (LADA) Plan(sqs []*model.SubQuery, locations [][]int, servers []ServerPlacement) ([][]int, []int) {
	type ranked struct{ rank, sq int }
	perServer := make([][]ranked, len(servers))
	for s := range perServer {
		perServer[s] = make([]ranked, 0, len(sqs)) // every server ranks every subquery
	}
	owner := make([]int, len(sqs))
	vec := make([]int, 0, len(servers))
	for i, sq := range sqs {
		var replicas []int
		if i < len(locations) {
			replicas = locations[i]
		}
		vec = ladaVector(vec, sq.Chunk, replicas, servers)
		owner[i] = vec[0]
		for rank, sIdx := range vec {
			perServer[sIdx] = append(perServer[sIdx], ranked{rank: rank, sq: i})
		}
	}
	pref := make([][]int, len(servers))
	for sIdx, rs := range perServer {
		slices.SortStableFunc(rs, func(a, b ranked) int { return a.rank - b.rank })
		lst := make([]int, len(rs))
		for j, r := range rs {
			lst[j] = r.sq
		}
		pref[sIdx] = lst
	}
	return pref, owner
}

// ladaVector refills vec with S⃗(q) for a subquery on chunk: the indices of
// the servers on a node in replicas (one entry per replica), then the rest,
// each group shuffled by a Fisher–Yates whose random source is a splitmix64
// sequence seeded from the chunk ID — so the order is a function of the
// chunk alone, and costs no allocation.
func ladaVector(vec []int, chunk model.ChunkID, replicas []int, servers []ServerPlacement) []int {
	vec = vec[:0]
	for sIdx, sp := range servers {
		if slices.Contains(replicas, sp.Node) {
			vec = append(vec, sIdx)
		}
	}
	coLocated := len(vec)
	for sIdx, sp := range servers {
		if !slices.Contains(replicas, sp.Node) {
			vec = append(vec, sIdx)
		}
	}
	state := mix(uint64(chunk))
	shuffle(vec[:coLocated], &state)
	shuffle(vec[coLocated:], &state)
	return vec
}

// shuffle permutes a by Fisher–Yates, drawing from the splitmix64 sequence
// at *state.
func shuffle(a []int, state *uint64) {
	for i := len(a) - 1; i > 0; i-- {
		j := int(splitmix(state) % uint64(i+1))
		a[i], a[j] = a[j], a[i]
	}
}

// splitmix advances a splitmix64 state and returns its next output.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// mix is a 64-bit finalizer used to derive hashes and shuffle seeds from
// chunk IDs.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// PolicyByName returns the named policy, defaulting to LADA.
func PolicyByName(name string) Policy {
	switch name {
	case "round-robin", "rr":
		return RoundRobin{}
	case "hashing", "hash":
		return Hashing{}
	case "shared-queue", "shared":
		return SharedQueue{}
	default:
		return LADA{}
	}
}
