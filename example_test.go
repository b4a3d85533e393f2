package herdkv_test

import (
	"fmt"

	"herdkv"
)

// Example shows the minimal HERD session: one server machine, one
// client, a PUT and a GET across the simulated fabric.
func Example() {
	cl := herdkv.NewCluster(herdkv.Apt(), 2, 1)
	cfg := herdkv.DefaultConfig()
	cfg.NS = 2
	cfg.MaxClients = 1
	srv, _ := herdkv.NewServer(cl.Machine(0), cfg)
	cli, _ := srv.ConnectClient(cl.Machine(1))

	key := herdkv.KeyFromUint64(42)
	cli.Put(key, []byte("hello"), func(herdkv.Result) {
		cli.Get(key, func(r herdkv.Result) {
			fmt.Printf("status=%v value=%s\n", r.Status, r.Value)
		})
	})
	cl.Eng.Run()
	// Output: status=hit value=hello
}

// ExampleNewWorkload drives a HERD client with the paper's
// read-intensive workload generator.
func ExampleNewWorkload() {
	gen := herdkv.NewWorkload(herdkv.ReadIntensive(1000, 32, 1))
	gets := 0
	n := 100000
	for i := 0; i < n; i++ {
		if gen.Next().IsGet {
			gets++
		}
	}
	fmt.Printf("GET share ~%d%%\n", int(float64(gets)/float64(n)*100+0.5))
	// Output: GET share ~95%
}

// ExampleServer_Preload warms a deployment before measuring, as the
// experiment harness does.
func ExampleServer_Preload() {
	cl := herdkv.NewCluster(herdkv.Apt(), 2, 1)
	cfg := herdkv.DefaultConfig()
	cfg.NS = 1
	cfg.MaxClients = 1
	srv, _ := herdkv.NewServer(cl.Machine(0), cfg)
	key := herdkv.KeyFromUint64(9)
	srv.Preload(key, []byte("warm"))

	cli, _ := srv.ConnectClient(cl.Machine(1))
	cli.Get(key, func(r herdkv.Result) {
		fmt.Printf("%s\n", r.Value)
	})
	cl.Eng.Run()
	// Output: warm
}
