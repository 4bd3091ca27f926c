// Partition explorer: the Figure-6 experiment on one graph — compare
// continuous, round-robin, and hybrid CPU-MIC partitioning on balance,
// cross edges, and resulting heterogeneous SSSP time.
package main

import (
	"fmt"
	"log"

	"hetgraph"
)

func main() {
	log.SetFlags(0)

	g, err := hetgraph.GeneratePowerLaw(hetgraph.DefaultPowerLaw(30000))
	if err != nil {
		log.Fatal(err)
	}
	g, err = hetgraph.AddRandomWeights(g, 0, 10, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("graph:", hetgraph.Stats(g))

	ratio := hetgraph.Ratio{A: 1, B: 1}
	methods := []struct {
		name   string
		method hetgraph.PartitionMethod
	}{
		{"continuous", hetgraph.PartitionContinuous},
		{"roundrobin", hetgraph.PartitionRoundRobin},
		{"hybrid", hetgraph.PartitionHybrid},
	}
	fmt.Printf("%-12s %12s %14s %12s %12s %12s\n",
		"method", "cross edges", "workload CPU%", "exec(ms)", "comm(ms)", "total(ms)")
	for _, m := range methods {
		assign, err := hetgraph.Partition(m.method, g, ratio)
		if err != nil {
			log.Fatal(err)
		}
		cross := hetgraph.CrossEdges(g, assign)
		var cpuEdges, total int64
		for v := 0; v < g.NumVertices(); v++ {
			d := int64(g.OutDegree(hetgraph.VertexID(v)))
			total += d
			if assign[v] == 0 {
				cpuEdges += d
			}
		}
		app := hetgraph.NewSSSP(0)
		res, err := hetgraph.RunF32Hetero(app, g, assign,
			hetgraph.Options{Dev: hetgraph.CPU(), Scheme: hetgraph.SchemeLocking, Vectorized: true},
			hetgraph.Options{Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true},
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %12d %13.1f%% %12.3f %12.3f %12.3f\n",
			m.name, cross, 100*float64(cpuEdges)/float64(total),
			1e3*res.ExecSeconds, 1e3*res.CommSeconds, 1e3*res.SimSeconds)
	}
	fmt.Println("\nhybrid keeps the workload split near the requested ratio like round-robin,")
	fmt.Println("but cuts far fewer edges, so its communication time is the lowest (Fig. 6).")
}
