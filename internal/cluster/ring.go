package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over replica names. Each replica
// contributes vnodesPerReplica points keyed by "name#i", so adding or
// removing one replica remaps only ~1/N of the key space — the property
// that keeps basket→replica affinity (and therefore warm caches) stable
// across fleet changes.
//
// The ring is immutable after build; the coordinator swaps whole rings
// when the fleet changes.
type ring struct {
	points []ringPoint
	names  []string
}

type ringPoint struct {
	hash uint64
	node int // index into names
}

const vnodesPerReplica = 64

func newRing(names []string) *ring {
	r := &ring{names: names, points: make([]ringPoint, 0, len(names)*vnodesPerReplica)}
	for i, name := range names {
		for v := 0; v < vnodesPerReplica; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(name + "#" + strconv.Itoa(v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// successors returns the distinct replica indexes starting at the ring
// position owning key, in ring order — the primary first, then the
// failover/hedge order. The slice has one entry per replica.
func (r *ring) successors(key string) []int {
	out := make([]int, 0, len(r.names))
	if len(r.points) == 0 {
		return out
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, len(r.names))
	for i := 0; i < len(r.points) && len(out) < len(r.names); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// hash64 hashes a ring key: fnv-1a for the byte mixing, then a
// splitmix64 finalizer. The finalizer matters: raw fnv of strings that
// differ only in a trailing counter ("replica#0" … "replica#63")
// produces one tight arithmetic band per prefix, which collapses the
// ring into a few giant arcs and routes half the key space to a single
// replica. Avalanching the output scatters each replica's vnodes over
// the whole 64-bit circle.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Stafford variant 13).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
