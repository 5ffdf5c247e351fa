package cluster

import (
	"context"
	"math/rand"
	"sync"
)

// Message is one gossip exchange payload: the sender's applied vector
// plus any events it believes the receiver is missing. The receiver
// applies the events and answers with its own vector and the events the
// sender's digest shows IT is missing — one request/response is a full
// push-pull.
type Message struct {
	From   string  `json:"from"`
	Digest Vector  `json:"digest"`
	Events []Event `json:"events,omitempty"`
}

// Transport carries one gossip exchange to a peer address and returns
// the peer's response. Implementations: the serve layer's HTTP
// transport (POST /v1/gossip) and the in-memory MemTransport below.
type Transport interface {
	Exchange(ctx context.Context, peerAddr string, msg Message) (Message, error)
}

// NodeConfig configures a gossip node.
type NodeConfig struct {
	// ID is this replica's origin ID.
	ID string
	// Peers are the other replicas' transport addresses.
	Peers []string
	// Fanout is how many peers each Round contacts; 0 means min(2, len).
	Fanout int
	// Transport carries exchanges; required.
	Transport Transport
	// Seed fixes peer selection, making test rounds deterministic.
	Seed int64
	// OnApply, when set, runs after events from a peer are newly applied
	// (outside the log lock), in apply order — the serve layer's hook for
	// publishing the fault set and pushing faults into sessions. Events
	// originated with Log().Originate do not fire it; the originator
	// publishes them itself.
	OnApply func(evs []Event)
}

// Node ties a Log to a Transport: it answers inbound exchanges
// (HandleMessage), runs periodic anti-entropy rounds (Round), and
// eagerly pushes newly originated events (Broadcast). Safe for
// concurrent use.
type Node struct {
	cfg NodeConfig
	log *Log

	mu  sync.Mutex
	rng *rand.Rand
}

// NewNode builds a gossip node over the given log.
func NewNode(cfg NodeConfig, log *Log) *Node {
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
		if len(cfg.Peers) < 2 {
			cfg.Fanout = len(cfg.Peers)
		}
	}
	return &Node{cfg: cfg, log: log, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// ID returns the node's origin ID.
func (n *Node) ID() string { return n.cfg.ID }

// Log returns the node's fault-event log.
func (n *Node) Log() *Log { return n.log }

// Peers returns the configured peer addresses.
func (n *Node) Peers() []string { return append([]string(nil), n.cfg.Peers...) }

// apply ingests events and fires OnApply for any that were new.
func (n *Node) apply(evs []Event) {
	if len(evs) == 0 {
		return
	}
	newly := n.log.Apply(evs...)
	if len(newly) > 0 && n.cfg.OnApply != nil {
		n.cfg.OnApply(newly)
	}
}

// HandleMessage is the receiver half of an exchange: apply what the
// sender pushed, then answer with our vector and whatever the sender's
// digest says it lacks.
func (n *Node) HandleMessage(msg Message) Message {
	n.apply(msg.Events)
	return Message{
		From:   n.cfg.ID,
		Digest: n.log.Digest(),
		Events: n.log.Delta(msg.Digest),
	}
}

// exchange runs one push-pull with a peer and applies whatever comes
// back. Errors are dropped — a dead peer is simply not gossiped with
// this round.
func (n *Node) exchange(ctx context.Context, peer string, events []Event) {
	msg := Message{From: n.cfg.ID, Digest: n.log.Digest(), Events: events}
	resp, err := n.cfg.Transport.Exchange(ctx, peer, msg)
	if err != nil {
		return
	}
	n.apply(resp.Events)
	// If the peer is behind us beyond what we pushed, send the rest.
	if delta := n.log.Delta(resp.Digest); len(delta) > 0 {
		push := Message{From: n.cfg.ID, Digest: n.log.Digest(), Events: delta}
		if resp2, err := n.cfg.Transport.Exchange(ctx, peer, push); err == nil {
			n.apply(resp2.Events)
		}
	}
}

// Broadcast pushes events to every peer (used right after
// Log().Originate), best effort: gossip rounds repair losses.
func (n *Node) Broadcast(ctx context.Context, events []Event) {
	for _, peer := range n.cfg.Peers {
		n.exchange(ctx, peer, events)
	}
}

// Round runs one anti-entropy round: push-pull with Fanout peers chosen
// by the seeded rng.
func (n *Node) Round(ctx context.Context) {
	peers := n.pickPeers()
	for _, peer := range peers {
		n.exchange(ctx, peer, nil)
	}
}

func (n *Node) pickPeers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := n.cfg.Fanout
	if k > len(n.cfg.Peers) {
		k = len(n.cfg.Peers)
	}
	if k == 0 {
		return nil
	}
	idx := n.rng.Perm(len(n.cfg.Peers))[:k]
	out := make([]string, k)
	for i, j := range idx {
		out[i] = n.cfg.Peers[j]
	}
	return out
}

// MemTransport is an in-process transport for deterministic gossip
// tests: it routes exchanges straight to registered nodes, drops
// messages with seeded probability LossRate (request and response
// independently), and shuffles event slices in flight (seeded reorder —
// harmless to a correct log, fatal to one that assumes ordered
// delivery). Safe for concurrent use.
type MemTransport struct {
	mu       sync.Mutex
	nodes    map[string]*Node
	rng      *rand.Rand
	LossRate float64
}

// NewMemTransport builds a transport with the given seed.
func NewMemTransport(seed int64) *MemTransport {
	return &MemTransport{nodes: make(map[string]*Node), rng: rand.New(rand.NewSource(seed))}
}

// Register attaches a node at an address.
func (t *MemTransport) Register(addr string, n *Node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[addr] = n
}

// errLost is returned for dropped messages.
type errLost struct{}

func (errLost) Error() string { return "cluster: message lost" }

// mangle applies seeded loss/reorder to a message in flight.
func (t *MemTransport) mangle(msg Message) (Message, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.LossRate > 0 && t.rng.Float64() < t.LossRate {
		return Message{}, false
	}
	if len(msg.Events) > 1 {
		evs := append([]Event(nil), msg.Events...)
		t.rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		msg.Events = evs
	}
	return msg, true
}

// Exchange implements Transport.
func (t *MemTransport) Exchange(_ context.Context, peerAddr string, msg Message) (Message, error) {
	t.mu.Lock()
	peer := t.nodes[peerAddr]
	t.mu.Unlock()
	if peer == nil {
		return Message{}, errLost{}
	}
	req, ok := t.mangle(msg)
	if !ok {
		return Message{}, errLost{}
	}
	resp := peer.HandleMessage(req)
	out, ok := t.mangle(resp)
	if !ok {
		return Message{}, errLost{}
	}
	return out, nil
}
