package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/serve"
)

// daemon is one in-process bgqd: serve.New and its Handler on a Unix
// socket. The socket lives in Linux's abstract namespace, so it needs
// no directory, leaves no file behind and has no path-length limit.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	addr string
	done chan struct{}
}

var socketSeq atomic.Int64

func listen() (net.Listener, string, error) {
	name := fmt.Sprintf("@bgqflow-bench-%d-%d", os.Getpid(), socketSeq.Add(1))
	ln, err := net.Listen("unix", name)
	if err != nil {
		return nil, "", fmt.Errorf("bench: listen on %s: %w", name, err)
	}
	return ln, "unix://" + name, nil
}

func serveOn(ln net.Listener, addr string, cfg serve.Config) *daemon {
	d := &daemon{srv: serve.New(cfg), addr: addr, done: make(chan struct{})}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d
}

// close stops accepting, waits for in-flight requests and the serving
// goroutine, then stops the server's workers.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.done
	d.srv.Close()
}

// startDaemon runs one standalone daemon and a client for it. The
// client does not retry: a shed request counts as failed.
func startDaemon(cfg serve.Config) (*daemon, *serve.Client, error) {
	ln, addr, err := listen()
	if err != nil {
		return nil, nil, err
	}
	d := serveOn(ln, addr, cfg)
	c, err := serve.NewClient(addr)
	if err != nil {
		d.close()
		return nil, nil, err
	}
	c.SetRetryPolicy(serve.NoRetryPolicy())
	return d, c, nil
}

// replicas is the size of serve-faults' cluster.
const replicas = 3

func replicaID(i int) string { return fmt.Sprintf("r%d", i) }

// startCluster runs replicas gossiping daemons and a ring client over
// them. As in loadgen, 429s surface at once while 503s (a replica
// behind the demanded fault vector) retry in place.
func startCluster(seed int64) ([]*daemon, *serve.RingClient, error) {
	lns := make([]net.Listener, replicas)
	addrs := make([]string, replicas)
	for i := range lns {
		var err error
		if lns[i], addrs[i], err = listen(); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, nil, err
		}
	}
	ds := make([]*daemon, replicas)
	members := make([]cluster.Member, replicas)
	for i := range ds {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		ds[i] = serveOn(lns[i], addrs[i], serve.Config{ReplicaID: replicaID(i), Peers: peers, GossipSeed: subSeed(seed, "gossip", i)})
		members[i] = cluster.Member{ID: replicaID(i), Addr: addrs[i]}
	}
	rc, err := serve.NewRingClient(members)
	if err != nil {
		closeAll(ds)
		return nil, nil, err
	}
	pol := serve.DefaultRetryPolicy()
	pol.NoShedRetry = true
	rc.SetRetryPolicy(pol)
	return ds, rc, nil
}

func closeAll(ds []*daemon) {
	for _, d := range ds {
		d.close()
	}
}
