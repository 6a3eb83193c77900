// Quickstart: spin up a three-datacenter cluster in process, run a
// transaction with the Paxos-CP commit protocol, and read the result back
// from every datacenter.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"paxoscp/internal/cluster"
	"paxoscp/internal/core"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
)

func main() {
	// A three-datacenter deployment with the paper's Virginia RTTs,
	// compressed 10x so the demo is instant.
	c := cluster.New(cluster.Config{
		Topology:  cluster.MustPaperTopology("VVV"),
		NetConfig: network.SimConfig{Seed: 1, Scale: 0.1},
		Timeout:   500 * time.Millisecond,
	})
	defer c.Close()
	fmt.Printf("cluster up: datacenters %v\n", c.DCs())

	// A Transaction Client local to datacenter V1, committing with
	// Paxos-CP.
	client := c.NewClient("V1", core.Config{Protocol: core.CP})
	ctx := context.Background()

	// Transaction 1: create an account.
	tx, err := client.Begin(ctx, "accounts")
	if err != nil {
		log.Fatal(err)
	}
	tx.Write("alice/balance", "100")
	tx.Write("alice/currency", "USD")
	res, err := tx.Commit(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("txn 1 (%s): committed at log position %d in %v\n",
		tx.ID(), res.Pos, res.Latency.Round(time.Millisecond))

	// Transaction 2: read-modify-write.
	tx, err = client.Begin(ctx, "accounts")
	if err != nil {
		log.Fatal(err)
	}
	bal, _, err := tx.Read(ctx, "alice/balance")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("txn 2: read alice/balance = %s at read position %d\n", bal, tx.ReadPos())
	tx.Write("alice/balance", "85")
	if res, err = tx.Commit(ctx); err != nil || res.Status != stats.Committed {
		log.Fatalf("commit: %+v %v", res, err)
	}
	fmt.Printf("txn 2: committed at log position %d\n", res.Pos)

	// Every datacenter serves the committed state once the decision's
	// notification has reached it: the commit returned when V1 had applied
	// it, and the other two hear a link delay later.
	for _, dc := range c.DCs() {
		reader := c.NewClient(dc, core.Config{})
		tx, err := reader.Begin(ctx, "accounts")
		if err != nil {
			log.Fatal(err)
		}
		v, _, err := tx.Read(ctx, "alice/balance")
		if err != nil {
			log.Fatal(err)
		}
		tx.Abort()
		fmt.Printf("datacenter %s: alice/balance = %s\n", dc, v)
	}
}
