package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
	"bgqflow/internal/torus"
)

// Transfer sessions (DESIGN.md §14): POST /v1/transfer starts a
// server-side MoveResilient run and streams its progress as ndjson. The
// layer is built to survive the failure modes around it:
//
//   - Idempotent session IDs: a client that times out and re-POSTs the
//     same ID attaches to the running session instead of double-starting
//     the transfer. A different body under a known ID is a 409.
//   - Reconnect-and-resume: every session keeps a bounded replay buffer
//     of seq-numbered frames; a dropped client resumes with
//     GET /v1/transfer/{id}/events?after=N and replays what it missed.
//     Acks (POST .../ack) evict acknowledged frames; the terminal report
//     frame is never evicted.
//   - Pushed faults: a POST /v1/fault epoch bump is forwarded into every
//     running session. The session applies the failure on its own
//     goroutine at the next MoveResilient safe point and streams a
//     "fault" frame carrying the resolved link IDs and the exact virtual
//     instant — enough for a client to replay the identical timeline
//     through RunTransfer and check the report byte for byte.
//   - Heartbeats + reaping: sessions with no subscriber and no heartbeat
//     past the idle deadline are canceled (running) or dropped (done).
//   - Draining: Server.Drain refuses new sessions, flushes open batch
//     windows, waits for in-flight sessions under a deadline, and aborts
//     whatever is left, reporting the split.

var (
	errSessionMismatch = errors.New("serve: session id exists with a different request body")
	errDraining        = errors.New("serve: daemon draining, not accepting new sessions")
	errSessionLimit    = errors.New("serve: session limit reached")
	errSessionIdle     = errors.New("serve: session reaped: no client heartbeat within the idle deadline")
	errDrainAborted    = errors.New("serve: daemon draining: session aborted at the drain deadline")
)

type sessionState int

const (
	sessBatching sessionState = iota
	sessRunning
	sessDone
)

var sessionStateNames = [...]string{"batching", "running", "done"}

func (s sessionState) String() string { return sessionStateNames[s] }

// pushEvent is one daemon fault event queued for injection into a
// running session: the wire faults that apply to its torus and the link
// IDs they resolve to.
type pushEvent struct {
	epoch   uint64
	links   []scenario.FailLink
	linkIDs []int
}

// session is one long-lived transfer execution.
type session struct {
	id    string
	mgr   *sessionMgr
	tor   *torus.Torus
	pace  time.Duration
	done  chan struct{}
	epoch uint64 // fault epoch at session creation
	// trace is the session's trace ID: the client's X-Bgq-Trace-Id when
	// stamped, else generated at creation (tracing enabled only). A
	// re-arm inherits it, so a resumed session continues its original
	// trace. Immutable after creation.
	trace string

	mu        sync.Mutex
	req       TransferRequest     // Bytes grows while batching
	faults    []scenario.FailLink // daemon fault-set snapshot at creation
	state     sessionState
	events    [][]byte // replay ring; events[i] has seq firstSeq+i
	firstSeq  uint64
	nextSeq   uint64
	report    []byte // terminal frame, kept out of reach of eviction
	reportSeq uint64
	aborted   bool
	subs      map[chan []byte]struct{}
	lastTouch time.Time
	cancelErr error
	pushes    []pushEvent
	pushMark  bool     // a pushed fault landed; mark the next replan frame
	members   []string // batch member IDs (leader first); len 1 when solo batch
}

// sessionMgr owns the session table, the batching windows, and the
// reaper.
type sessionMgr struct {
	srv *Server

	mu       sync.Mutex
	sessions map[string]*session
	canon    map[string]string // id -> canonical request body
	batches  map[string]*session
	running  int
	draining bool

	reaperStop chan struct{}
	reaperDone chan struct{}
}

func newSessionMgr(srv *Server) *sessionMgr {
	m := &sessionMgr{
		srv:        srv,
		sessions:   make(map[string]*session),
		canon:      make(map[string]string),
		batches:    make(map[string]*session),
		reaperStop: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	go m.reaper()
	return m
}

// batchMaxBytes is the per-request size ceiling for combining; larger
// transfers always run alone.
const batchMaxBytes = 256 << 10

// replayEvents bounds each session's replay ring.
const replayEvents = 256

// batchKey groups combinable requests: same geometry, endpoints, and
// recovery knobs (the combined session must behave like each member
// asked, just bigger).
func batchKey(r TransferRequest) string {
	return fmt.Sprintf("%s|%d|%d|%d|%g|%g|%d", r.Shape, r.Src, r.Dst, r.MaxReplans, r.DetectFactor, r.BackoffUS, r.PaceUS)
}

// startOrAttach resolves a POST /v1/transfer: create, join a batch
// window, attach to a live session, or re-arm an aborted one. The
// returned verdict feeds the per-outcome counters.
func (m *sessionMgr) startOrAttach(req TransferRequest, trace string) (*session, string, error) {
	canon := req.canonical()
	m.mu.Lock()
	defer m.mu.Unlock()

	if s, ok := m.sessions[req.ID]; ok {
		if m.canon[req.ID] != canon {
			return nil, "", errSessionMismatch
		}
		s.mu.Lock()
		rearm := s.state == sessDone && s.aborted
		s.mu.Unlock()
		if !rearm {
			return s, "attached", nil
		}
		// The previous run was aborted (drain or idle reap): re-arm the
		// same ID with a fresh run so the retry completes the transfer.
		// Re-arms run solo — no batch window on the retry path. The new
		// run continues the original trace.
		if m.draining {
			return nil, "", errDraining
		}
		if m.running >= m.srv.cfg.MaxSessions {
			return nil, "", errSessionLimit
		}
		ns := m.newSessionLocked(req, s.trace)
		m.sessions[req.ID] = ns
		m.canon[req.ID] = canon
		m.launchLocked(ns)
		return ns, "rearmed", nil
	}

	if m.draining {
		return nil, "", errDraining
	}

	cfg := m.srv.cfg
	if req.Batch && cfg.BatchWindow > 0 && req.Campaign == nil && req.Bytes <= batchMaxBytes {
		key := batchKey(req)
		if leader, ok := m.batches[key]; ok {
			leader.mu.Lock()
			open := leader.state == sessBatching
			if open {
				leader.req.Bytes += req.Bytes
				leader.members = append(leader.members, req.ID)
			}
			leader.mu.Unlock()
			if open {
				m.sessions[req.ID] = leader
				m.canon[req.ID] = canon
				return leader, "joined", nil
			}
			delete(m.batches, key)
		}
		if m.running >= cfg.MaxSessions {
			return nil, "", errSessionLimit
		}
		s := m.newSessionLocked(req, trace)
		s.state = sessBatching
		s.members = []string{req.ID}
		m.sessions[req.ID] = s
		m.canon[req.ID] = canon
		m.batches[key] = s
		time.AfterFunc(cfg.BatchWindow, func() { m.launchBatch(key, s) })
		return s, "started", nil
	}

	if m.running >= cfg.MaxSessions {
		return nil, "", errSessionLimit
	}
	s := m.newSessionLocked(req, trace)
	m.sessions[req.ID] = s
	m.canon[req.ID] = canon
	m.launchLocked(s)
	return s, "started", nil
}

// newSessionLocked builds a session with the current fault-set snapshot.
// Caller holds m.mu.
func (m *sessionMgr) newSessionLocked(req TransferRequest, trace string) *session {
	epoch, faults := m.srv.snapshot()
	shape, _ := torus.ParseShape(req.Shape)
	tor, _ := torus.New(shape) // req was validated; cannot fail
	if trace == "" && m.srv.wall != nil {
		trace = obs.NewTraceID()
	}
	return &session{
		id:        req.ID,
		trace:     trace,
		mgr:       m,
		tor:       tor,
		pace:      time.Duration(req.PaceUS) * time.Microsecond,
		done:      make(chan struct{}),
		epoch:     epoch,
		req:       req,
		faults:    faults,
		state:     sessRunning,
		firstSeq:  1,
		nextSeq:   1,
		subs:      make(map[chan []byte]struct{}),
		lastTouch: time.Now(),
	}
}

// launchLocked starts the session goroutine. Caller holds m.mu.
func (m *sessionMgr) launchLocked(s *session) {
	m.running++
	m.srv.reg.Gauge("serve/sessions_active").Set(float64(m.running))
	go s.run()
}

// launchBatch closes a batch window and runs the combined session.
func (m *sessionMgr) launchBatch(key string, s *session) {
	m.mu.Lock()
	if m.batches[key] == s {
		delete(m.batches, key)
	}
	s.mu.Lock()
	launch := s.state == sessBatching
	if launch {
		s.state = sessRunning
		m.srv.reg.Counter("serve/sessions_combined").Add(int64(len(s.members)))
	}
	s.mu.Unlock()
	if launch {
		m.launchLocked(s)
	}
	m.mu.Unlock()
}

// flushBatchesLocked fires every open batch window immediately (drain
// must not wait out the timers). Caller holds m.mu.
func (m *sessionMgr) flushBatchesLocked() {
	for key, s := range m.batches {
		delete(m.batches, key)
		s.mu.Lock()
		launch := s.state == sessBatching
		if launch {
			s.state = sessRunning
			m.srv.reg.Counter("serve/sessions_combined").Add(int64(len(s.members)))
		}
		s.mu.Unlock()
		if launch {
			m.launchLocked(s)
		}
	}
}

// sessionDone is the run-goroutine's exit bookkeeping.
func (m *sessionMgr) sessionDone() {
	m.mu.Lock()
	m.running--
	m.srv.reg.Gauge("serve/sessions_active").Set(float64(m.running))
	m.mu.Unlock()
}

// pushFaults forwards a fault event into every running session.
func (m *sessionMgr) pushFaults(links []scenario.FailLink, epoch uint64) {
	if len(links) == 0 {
		return
	}
	m.mu.Lock()
	targets := make([]*session, 0, len(m.sessions))
	seen := make(map[*session]struct{}, len(m.sessions))
	for _, s := range m.sessions {
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		targets = append(targets, s)
	}
	m.mu.Unlock()
	for _, s := range targets {
		s.push(links, epoch)
	}
}

// push queues the applicable subset of a fault event for injection at
// the session's next safe point.
func (s *session) push(links []scenario.FailLink, epoch uint64) {
	var appl []scenario.FailLink
	var ids []int
	for _, fl := range links {
		if id, ok := fl.LinkID(s.tor); ok {
			appl = append(appl, fl)
			ids = append(ids, id)
		}
	}
	if len(appl) == 0 {
		return
	}
	s.mu.Lock()
	if s.state == sessRunning {
		s.pushes = append(s.pushes, pushEvent{epoch: epoch, links: appl, linkIDs: ids})
	}
	s.mu.Unlock()
}

// cancel asks the run goroutine to stop at its next safe point.
func (s *session) cancel(err error) {
	s.mu.Lock()
	if s.cancelErr == nil && s.state != sessDone {
		s.cancelErr = err
	}
	s.mu.Unlock()
}

// interject is the session's MoveResilient safe-point hook: honor a
// cancel, apply queued pushed faults at the current virtual instant
// (streaming a "fault" frame with the exact time for replay), then pace
// the virtual clock against the wall clock.
func (s *session) interject(e *netsim.Engine) error {
	s.mu.Lock()
	cancelErr := s.cancelErr
	pushes := s.pushes
	s.pushes = nil
	s.mu.Unlock()
	if cancelErr != nil {
		return cancelErr
	}
	for _, p := range pushes {
		var applied []int
		var fls []scenario.FailLink
		for i, l := range p.linkIDs {
			if !e.Network().LinkFailed(l) {
				e.FailLinkAt(l, e.Now())
				applied = append(applied, l)
				fls = append(fls, p.links[i])
			}
		}
		if len(applied) > 0 {
			s.mu.Lock()
			s.pushMark = true
			s.mu.Unlock()
			s.emit(SessionFrame{Type: "fault", Pushed: true, Epoch: p.epoch,
				Links: fls, LinkIDs: applied, VTime: float64(e.Now())})
			s.mgr.srv.reg.Counter("serve/faults_pushed").Inc()
			s.mgr.srv.wall.InstantV(s.trace, "bgqd/sessions", "fault pushed", float64(e.Now()))
		}
	}
	if s.pace > 0 {
		time.Sleep(s.pace)
	}
	return nil
}

// run executes the transfer and publishes the terminal report frame.
// With tracing enabled the run records a wall-clock session span, wall
// instants for replans/degrades/pushed faults, and a private sim-clock
// recorder merged into the daemon trace plane at the end — all under the
// session's one trace ID.
func (s *session) run() {
	defer s.mgr.sessionDone()
	reg := s.mgr.srv.reg
	wall := s.mgr.srv.wall
	reg.Counter("serve/sessions_executed").Inc()
	t0 := time.Now()

	s.mu.Lock()
	req := s.req
	faults := s.faults
	s.mu.Unlock()

	onEvent := func(ev core.TransferEvent) {
		f := progressFrame(ev)
		if ev.Kind == core.EventReplan {
			s.mu.Lock()
			if s.pushMark {
				s.pushMark = false
				f.Pushed = true
			}
			s.mu.Unlock()
			if f.Pushed {
				reg.Counter("serve/replans_pushed").Inc()
			}
		}
		if ev.Kind == core.EventReplan || ev.Kind == core.EventDegrade {
			wall.InstantV(s.trace, "bgqd/sessions", f.Type, float64(ev.At))
		}
		s.emit(f)
	}
	hooks := TransferHooks{OnEvent: onEvent, Interject: s.interject}
	var span obs.SpanID
	if wall != nil {
		hooks.Recorder = obs.NewRecorder()
		hooks.Track = "engine/" + s.id
		span = wall.SpanBegin(s.trace, "bgqd/sessions", "session "+s.id)
	}
	rep, err := RunTransfer(req, faults, hooks)
	s.finish(rep, err)
	if wall != nil {
		// Merge the engine's sim-clock spans before closing the session
		// span: a trace read once no span is open then holds them.
		wall.MergeSim(s.trace, hooks.Recorder)
		s.mu.Lock()
		aborted := s.aborted
		s.mu.Unlock()
		if aborted {
			wall.SpanAbort(span)
		} else {
			wall.SpanEnd(span)
		}
	}
	reg.Histogram("serve/session_wall_ms").Observe(float64(time.Since(t0)) / 1e6)
}

// emit appends a frame to the replay ring and fans it out. A subscriber
// whose channel is full is dropped (it will resume from the ring).
func (s *session) emit(f SessionFrame) {
	s.mu.Lock()
	f.Seq = s.nextSeq
	s.nextSeq++
	b, _ := json.Marshal(f)
	s.events = append(s.events, b)
	if len(s.events) > replayEvents {
		drop := len(s.events) - replayEvents
		s.events = append([][]byte(nil), s.events[drop:]...)
		s.firstSeq += uint64(drop)
	}
	if len(s.subs) > 0 {
		s.lastTouch = time.Now()
	}
	for ch := range s.subs {
		select {
		case ch <- b:
		default:
			delete(s.subs, ch)
			close(ch)
		}
	}
	s.mu.Unlock()
	s.mgr.srv.reg.Counter("serve/session_events").Inc()
}

// finish publishes the terminal report frame and closes every
// subscriber.
func (s *session) finish(rep core.TransferReport, runErr error) {
	repJSON, _ := json.Marshal(rep)
	reg := s.mgr.srv.reg

	s.mu.Lock()
	f := SessionFrame{Type: "report", ID: s.id, Report: repJSON, Members: s.members}
	if runErr != nil {
		f.Error = runErr.Error()
	}
	f.Aborted = s.cancelErr != nil
	f.Seq = s.nextSeq
	s.nextSeq++
	b, _ := json.Marshal(f)
	s.events = append(s.events, b)
	s.report = b
	s.reportSeq = f.Seq
	s.state = sessDone
	s.aborted = f.Aborted
	for ch := range s.subs {
		select {
		case ch <- b:
		default:
		}
		delete(s.subs, ch)
		close(ch)
	}
	s.mu.Unlock()

	close(s.done)
	if f.Aborted {
		reg.Counter("serve/sessions_aborted").Inc()
	} else if runErr != nil {
		reg.Counter("serve/sessions_failed").Inc()
	} else {
		reg.Counter("serve/sessions_completed").Inc()
	}
	reg.Counter("serve/session_events").Inc()
}

// subscribe registers a stream: the hello preamble, the buffered frames
// after `after`, and (unless the session is done) a live channel.
func (s *session) subscribe(after uint64) (SessionFrame, [][]byte, chan []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := after + 1
	if start < s.firstSeq {
		start = s.firstSeq
	}
	var replay [][]byte
	if start < s.nextSeq {
		replay = append(replay, s.events[start-s.firstSeq:]...)
	}
	hello := SessionFrame{
		Type:       "hello",
		ID:         s.id,
		State:      s.state.String(),
		ReplayFrom: start,
		Epoch:      s.epoch,
		Links:      s.faults,
		Members:    s.members,
		Trace:      s.trace,
	}
	var ch chan []byte
	if s.state != sessDone {
		ch = make(chan []byte, 128)
		s.subs[ch] = struct{}{}
	}
	s.lastTouch = time.Now()
	return hello, replay, ch
}

func (s *session) unsubscribe(ch chan []byte) {
	s.mu.Lock()
	if _, ok := s.subs[ch]; ok {
		delete(s.subs, ch)
		close(ch)
	}
	s.lastTouch = time.Now()
	s.mu.Unlock()
}

// ack evicts acknowledged frames from the replay ring. The terminal
// report frame is never evicted: a late resume must always be able to
// fetch the outcome.
func (s *session) ack(seq uint64) {
	s.mu.Lock()
	upTo := seq
	if s.reportSeq > 0 && upTo >= s.reportSeq {
		upTo = s.reportSeq - 1
	}
	if upTo >= s.firstSeq {
		drop := int(upTo - s.firstSeq + 1)
		if drop > len(s.events) {
			drop = len(s.events)
		}
		s.events = append([][]byte(nil), s.events[drop:]...)
		s.firstSeq += uint64(drop)
	}
	s.lastTouch = time.Now()
	s.mu.Unlock()
}

func (s *session) touch() {
	s.mu.Lock()
	s.lastTouch = time.Now()
	s.mu.Unlock()
}

// reaper enforces the heartbeat deadline: a session nobody is watching
// (no subscriber, no heartbeat, no ack) past the idle window is canceled
// if running or dropped if done.
func (m *sessionMgr) reaper() {
	defer close(m.reaperDone)
	interval := m.srv.cfg.SessionIdle / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.reaperStop:
			return
		case <-tick.C:
		}
		idle := m.srv.cfg.SessionIdle
		m.mu.Lock()
		type victim struct {
			s   *session
			ids []string
		}
		byPtr := make(map[*session][]string)
		for id, s := range m.sessions {
			byPtr[s] = append(byPtr[s], id)
		}
		var cancels []*session
		var reaps []victim
		for s, ids := range byPtr {
			s.mu.Lock()
			stale := len(s.subs) == 0 && time.Since(s.lastTouch) > idle
			state := s.state
			s.mu.Unlock()
			if !stale {
				continue
			}
			switch state {
			case sessRunning:
				cancels = append(cancels, s)
			case sessDone:
				reaps = append(reaps, victim{s, ids})
			}
		}
		for _, v := range reaps {
			for _, id := range v.ids {
				delete(m.sessions, id)
				delete(m.canon, id)
			}
			m.srv.reg.Counter("serve/sessions_reaped").Inc()
		}
		m.mu.Unlock()
		for _, s := range cancels {
			s.cancel(errSessionIdle)
			m.srv.reg.Counter("serve/sessions_idle_canceled").Inc()
		}
	}
}

// shutdown stops the reaper and force-cancels whatever is still running
// (Server.Close path; graceful exits call Drain first).
func (m *sessionMgr) shutdown() {
	close(m.reaperStop)
	<-m.reaperDone
	m.mu.Lock()
	m.draining = true
	m.flushBatchesLocked()
	var waiting []*session
	seen := make(map[*session]struct{})
	for _, s := range m.sessions {
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		waiting = append(waiting, s)
	}
	m.mu.Unlock()
	for _, s := range waiting {
		s.cancel(errDrainAborted)
	}
	deadline := time.After(5 * time.Second)
	for _, s := range waiting {
		s.mu.Lock()
		running := s.state != sessDone
		s.mu.Unlock()
		if !running {
			continue
		}
		select {
		case <-s.done:
		case <-deadline:
			return
		}
	}
}
