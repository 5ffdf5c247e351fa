package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// FuzzSessionFrames feeds arbitrary ndjson bodies to the session client's
// stream decoder, starting from an arbitrary replay cursor. It must never
// panic; it must return an error exactly when a line it reaches is not a
// frame; it reports done only after a non-aborted report frame and rearm
// only after an aborted one; the cursor never moves back and duplicate
// frames never reach OnFrame.
func FuzzSessionFrames(f *testing.F) {
	for _, seed := range []struct {
		body  string
		start uint64
	}{
		{`{"seq":1,"type":"hello","id":"s1","trace":"t"}
{"seq":2,"type":"progress","wave":1}
{"seq":3,"type":"fault","pushed":true,"linkIDs":[4],"vtime":0.001}
{"seq":4,"type":"report","report":{"ok":true}}
`, 0},
		{`{"seq":2,"type":"progress"}
{"seq":1,"type":"report","aborted":true}
{"seq":3,"type":"report","aborted":true}`, 1},
		{"\n  \r\n{\"type\":\"ping\"}\r\n{\"seq\":5,\"type\":\"report\",\"error\":\"boom\"}", 0},
		{`{"seq":1,"type":"hello"}
not json
{"seq":2,"type":"report"}`, 0},
		{`{"seq":9,"type":"report"}
garbage after the end`, 3},
		{`null`, 0},
		{`{"seq":-1,"type":"report"}`, 0},
		{``, 7},
	} {
		f.Add([]byte(seed.body), seed.start)
	}
	f.Fuzz(func(t *testing.T, body []byte, start uint64) {
		var seen []SessionFrame
		opts := TransferOpts{OnFrame: func(fr SessionFrame) { seen = append(seen, fr) }}
		resp := &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body))}
		var out TransferOutcome
		lastSeq := start
		done, rearm, err := (&Client{}).consumeStream(resp, opts, &out, &lastSeq)

		// The decoder's contract, restated line by line.
		wantSeq, wantErr, ended, aborted := start, false, false, false
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for !ended && sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var fr SessionFrame
			if json.Unmarshal(line, &fr) != nil {
				wantErr = true
				break
			}
			if fr.Seq > 0 {
				if fr.Seq <= wantSeq {
					continue
				}
				wantSeq = fr.Seq
			}
			if fr.Type == "report" {
				ended, aborted = true, fr.Aborted
			}
		}
		if sc.Err() != nil {
			wantErr = true
		}

		if (err != nil) != wantErr {
			t.Fatalf("error %v, want error %v", err, wantErr)
		}
		if done != (ended && !aborted) || rearm != (ended && aborted) {
			t.Fatalf("done/rearm %v/%v after a report %v (aborted %v)", done, rearm, ended, aborted)
		}
		if done && (len(seen) == 0 || seen[len(seen)-1].Type != "report" || seen[len(seen)-1].Aborted) {
			t.Fatal("done without a non-aborted report frame last")
		}
		if lastSeq < start || lastSeq != wantSeq {
			t.Fatalf("cursor %d from %d, want %d", lastSeq, start, wantSeq)
		}
		prev := start
		for _, fr := range seen {
			if fr.Seq == 0 {
				continue
			}
			if fr.Seq <= prev {
				t.Fatalf("frame seq %d delivered after %d: duplicates must be skipped", fr.Seq, prev)
			}
			prev = fr.Seq
		}
		if out.Frames > len(seen) {
			t.Fatalf("counted %d frames, delivered %d", out.Frames, len(seen))
		}
	})
}
