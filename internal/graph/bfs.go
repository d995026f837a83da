package graph

// BFS computes single-source shortest-path hop distances from src into
// dist, which must have length c.N(). Unreachable nodes get -1. The queue
// buffer is supplied by the caller so all-pairs sweeps can run without
// per-source allocation; it must have capacity >= c.N() (its contents are
// overwritten). It returns the number of reached nodes, src included.
func BFS(c *CSR, src int, dist []int32, queue []int32) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	head := 0
	reached := 1
	for head < len(queue) {
		u := queue[head]
		head++
		du := dist[u]
		for _, v := range c.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du + 1
				reached++
				queue = append(queue, v)
			}
		}
	}
	return reached
}

// Eccentricity returns the largest finite hop distance from src.
func Eccentricity(c *CSR, src int) int {
	dist := make([]int32, c.N())
	queue := make([]int32, 0, c.N())
	BFS(c, src, dist, queue)
	ecc := int32(0)
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}
