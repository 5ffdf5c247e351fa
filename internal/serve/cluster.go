package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bgqflow/internal/cluster"
)

// Cluster plane (DESIGN.md §17): every daemon is one replica of a bgqd
// cluster, and a daemon without peers is a cluster of one. Fault events
// enter a gossiped, versioned epoch log (cluster.Log); the serve layer's
// fault set is a pure function of the applied event set, so every
// replica that has applied the same events plans against the same
// faults. POST /v1/gossip is the peer wire, GET /v1/cluster the
// observability endpoint, and the X-Bgq-Min-Vector check in servePlan
// the staleness gate.

// publishLocked is the one fault-publish step: it publishes the log's
// fault set and vector as the next snapshot through planCache.publish
// and returns the current snapshot. The log version guards it, so a
// slow gossip delivery can never roll state backwards. Caller holds
// s.mu.
func (s *Server) publishLocked() *faultSnapshot {
	ver, vec, faults := s.node.Log().Snapshot()
	if ver <= s.pubVer {
		return s.cache.current()
	}
	s.pubVer = ver
	s.reg.Gauge("serve/fault_links").Set(float64(len(faults)))
	return s.cache.publish(faults, vec)
}

// onApply runs after gossip delivers events this replica had not
// applied: it publishes them and forwards their link failures into
// running transfer sessions.
func (s *Server) onApply(evs []cluster.Event) {
	s.mu.Lock()
	snap := s.publishLocked()
	s.mu.Unlock()
	s.reg.Counter("serve/fault_events").Add(int64(len(evs)))
	for _, ev := range evs {
		s.sessions.pushFaults(ev.Links, snap.epoch)
	}
}

// gossipLoop runs anti-entropy rounds until Close.
func (s *Server) gossipLoop(interval time.Duration) {
	defer close(s.gossipDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.gossipStop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), 4*interval)
			s.node.Round(ctx)
			cancel()
		}
	}
}

// checkMinVector enforces a request's X-Bgq-Min-Vector demand against
// the snapshot the caller already holds. It writes the response and
// returns false when the request must not proceed: 400 on a malformed
// header, 503 when this replica has not yet applied the demanded events.
func (s *Server) checkMinVector(w http.ResponseWriter, r *http.Request, snap *faultSnapshot) bool {
	min := r.Header.Get(HeaderMinVector)
	if min == "" {
		return true
	}
	want, err := cluster.ParseVector(min)
	if err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Epoch: snap.epoch, Error: err.Error(), Vector: snap.vecStr})
		return false
	}
	if !snap.vec.Dominates(want) {
		s.reg.Counter("serve/stale_rejects").Inc()
		writeJSON(w, http.StatusServiceUnavailable, planEnvelope{
			Epoch:  snap.epoch,
			Error:  fmt.Sprintf("serve: replica %s at vector %q behind requested %q", s.cfg.ReplicaID, snap.vecStr, min),
			Vector: snap.vecStr,
		})
		return false
	}
	return true
}

// handleGossip is the peer wire: POST /v1/gossip carries one push-pull
// exchange (cluster.Message in, cluster.Message out). A message carrying
// any link POST /v1/fault would reject is refused whole, before
// anything is applied.
func (s *Server) handleGossip(w http.ResponseWriter, r *http.Request) {
	var msg cluster.Message
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	if err := decodeOne(dec, &msg); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: fmt.Sprintf("serve: bad gossip body: %v", err)})
		return
	}
	for _, ev := range msg.Events {
		if err := validateLinks(ev.Links); err != nil {
			s.reg.Counter("serve/errors").Inc()
			writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusOK, s.node.HandleMessage(msg))
}

// ClusterStatus is the GET /v1/cluster body: where this replica stands
// in the fault-epoch plane.
type ClusterStatus struct {
	Replica string   `json:"replica"`
	Peers   []string `json:"peers"`
	// Vector is the applied fault-epoch vector the serve layer vouches
	// for (canonical string form).
	Vector string `json:"vector"`
	// Events is the number of fault events applied; FaultLinks the size
	// of the effective fault set they replay to.
	Events     int    `json:"events_applied"`
	FaultLinks int    `json:"fault_links"`
	Epoch      uint64 `json:"epoch"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	snap := s.cache.current()
	writeJSON(w, http.StatusOK, ClusterStatus{
		Replica:    s.cfg.ReplicaID,
		Peers:      s.node.Peers(),
		Vector:     snap.vecStr,
		Events:     s.node.Log().EventsApplied(),
		FaultLinks: len(snap.faults),
		Epoch:      snap.epoch,
	})
}

// httpGossipTransport carries gossip exchanges over POST /v1/gossip
// through one Client per peer address, built on first use and cached.
type httpGossipTransport struct {
	mu    sync.Mutex
	peers map[string]*Client
}

func newHTTPGossipTransport() *httpGossipTransport {
	return &httpGossipTransport{peers: make(map[string]*Client)}
}

func (t *httpGossipTransport) peer(addr string) (*Client, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.peers[addr]; ok {
		return c, nil
	}
	c, err := NewClient(addr)
	if err != nil {
		return nil, err
	}
	// A bounded per-exchange timeout so one dead peer cannot stall a
	// broadcast behind TCP timeouts.
	c.hc.Timeout = 2 * time.Second
	t.peers[addr] = c
	return c, nil
}

func (t *httpGossipTransport) Exchange(ctx context.Context, peerAddr string, msg cluster.Message) (cluster.Message, error) {
	c, err := t.peer(peerAddr)
	if err != nil {
		return cluster.Message{}, err
	}
	var out cluster.Message
	err = c.callJSON(ctx, http.MethodPost, "/v1/gossip", msg, &out)
	return out, err
}
