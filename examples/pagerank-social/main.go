// PageRank on a Pokec-like social graph, comparing single-device execution
// with heterogeneous CPU-MIC execution under hybrid partitioning — the
// configuration of Figure 5(a) in the paper.
package main

import (
	"fmt"
	"log"

	"hetgraph"
)

const iterations = 10

func main() {
	log.SetFlags(0)

	g, err := hetgraph.GeneratePowerLaw(hetgraph.DefaultPowerLaw(40000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("graph:", hetgraph.Stats(g))

	// Single device runs: locking on the CPU, pipelining on the MIC (the
	// paper's best configurations).
	cpuApp := hetgraph.NewPageRank()
	cpuRes, err := hetgraph.Run(cpuApp, g, hetgraph.Options{
		Dev: hetgraph.CPU(), Scheme: hetgraph.SchemeLocking, Vectorized: true,
		MaxIterations: iterations,
	})
	if err != nil {
		log.Fatal(err)
	}
	micApp := hetgraph.NewPageRank()
	micRes, err := hetgraph.Run(micApp, g, hetgraph.Options{
		Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true,
		MaxIterations: iterations,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CPU  (lock): sim %.3f ms\n", 1e3*cpuRes.SimSeconds)
	fmt.Printf("MIC  (pipe): sim %.3f ms\n", 1e3*micRes.SimSeconds)

	// Heterogeneous run at the paper's best PageRank ratio 3:5, with the
	// hybrid (Metis-blocked, round-robin dealt) partitioning.
	assign, err := hetgraph.Partition(hetgraph.PartitionHybrid, g, hetgraph.Ratio{A: 3, B: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid partitioning 3:5 cuts %d of %d edges\n", hetgraph.CrossEdges(g, assign), g.NumEdges())

	hetApp := hetgraph.NewPageRank()
	hetRes, err := hetgraph.RunF32Hetero(hetApp, g, assign,
		hetgraph.Options{Dev: hetgraph.CPU(), Scheme: hetgraph.SchemeLocking, Vectorized: true, MaxIterations: iterations},
		hetgraph.Options{Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true, MaxIterations: iterations},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CPU-MIC    : sim %.3f ms (exec %.3f + comm %.3f)\n",
		1e3*hetRes.SimSeconds, 1e3*hetRes.ExecSeconds, 1e3*hetRes.CommSeconds)

	best := cpuRes.SimSeconds
	if micRes.SimSeconds < best {
		best = micRes.SimSeconds
	}
	fmt.Printf("heterogeneous speedup over best single device: %.2fx\n", best/hetRes.SimSeconds)

	// Sanity: the three runs agree on the ranking values.
	for v := 0; v < 3; v++ {
		fmt.Printf("rank[%d]: cpu %.5f  mic %.5f  cpu-mic %.5f\n",
			v, cpuApp.Ranks[v], micApp.Ranks[v], hetApp.Ranks[v])
	}
}
