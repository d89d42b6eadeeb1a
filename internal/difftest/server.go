// Server-vs-library differential: the same instance replayed through
// internal/server's HTTP API (over httptest, in-process) must produce
// rankings byte-identical to the library's — same tuples, ρ values,
// contingency sets, and method strings, JSON-encoded and compared as
// bytes. Both the one-shot explain endpoint and the batch endpoint are
// exercised.
package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"

	"github.com/querycause/querycause/internal/causegen"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/server"
)

// ServerDiff owns an in-process querycaused server for replaying
// instances. It is safe for concurrent use by sweep workers.
type ServerDiff struct {
	srv *server.Server
	ts  *httptest.Server
}

// NewServerDiff boots the in-process server. Callers must Close it.
func NewServerDiff() *ServerDiff {
	srv := server.New(server.Config{
		// No background reaper: sessions are created and deleted per
		// check, and tests should not depend on wall-clock eviction.
		ReapInterval: -1,
		// Plenty of headroom over the sweep's worker count so one
		// worker's session is never LRU-evicted mid-check by another's.
		MaxSessions: 128,
	})
	return &ServerDiff{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

// Close shuts the in-process server down.
func (sd *ServerDiff) Close() {
	sd.ts.Close()
	sd.srv.Close()
}

// Check replays inst through the server and compares against the
// library ranking want (computed under ModeAuto).
func (sd *ServerDiff) Check(inst *causegen.Instance, want []core.Explanation) error {
	dbText, err := parser.FormatDatabase(inst.DB)
	if err != nil {
		return fmt.Errorf("serverdiff: format database: %v", err)
	}
	var info server.DatabaseInfo
	if err := sd.post("/v1/databases", "text/plain", strings.NewReader(dbText), &info); err != nil {
		return fmt.Errorf("serverdiff: upload: %v", err)
	}
	defer sd.deleteSession(info.ID)

	// The server renders through the same function (see serverDTOs).
	wantDTOs, wantTuples := server.RenderRanking(inst.DB, want)
	wantDTO, err := json.Marshal(wantDTOs)
	if err != nil {
		return err
	}

	kind := "whyso"
	if inst.WhyNo {
		kind = "whyno"
	}
	reqBody, _ := json.Marshal(server.ExplainRequest{Query: inst.Query.String(), Mode: "auto"})
	var resp server.ExplainResponse
	if err := sd.post("/v1/databases/"+info.ID+"/"+kind, "application/json", bytes.NewReader(reqBody), &resp); err != nil {
		return fmt.Errorf("serverdiff: %s: %v", kind, err)
	}
	gotDTO, err := json.Marshal(resp.Explanations)
	if err != nil {
		return err
	}
	if !bytes.Equal(gotDTO, wantDTO) {
		return fmt.Errorf("serverdiff: %s ranking differs from library:\nserver:  %s\nlibrary: %s", kind, gotDTO, wantDTO)
	}
	if !maps.Equal(resp.Tuples, wantTuples) {
		return fmt.Errorf("serverdiff: %s tuple table differs from library:\nserver:  %v\nlibrary: %v", kind, resp.Tuples, wantTuples)
	}

	// Batch endpoint: the same instance as a one-item batch must also
	// be byte-identical.
	batchBody, _ := json.Marshal(server.BatchExplainRequest{
		Requests: []server.BatchItem{{Query: inst.Query.String(), WhyNo: inst.WhyNo}},
		Mode:     "auto",
	})
	var batch server.BatchExplainResponse
	if err := sd.post("/v1/databases/"+info.ID+"/batch", "application/json", bytes.NewReader(batchBody), &batch); err != nil {
		return fmt.Errorf("serverdiff: batch: %v", err)
	}
	if len(batch.Results) != 1 {
		return fmt.Errorf("serverdiff: batch returned %d results for 1 request", len(batch.Results))
	}
	if batch.Results[0].Error != "" {
		return fmt.Errorf("serverdiff: batch item failed: %s", batch.Results[0].Error)
	}
	gotBatch, err := json.Marshal(batch.Results[0].Explanations)
	if err != nil {
		return err
	}
	// The batch DTO omits empty rankings entirely (omitempty); an
	// empty library ranking then marshals as [] vs null.
	if len(want) == 0 && batch.Results[0].Explanations == nil {
		return nil
	}
	if !bytes.Equal(gotBatch, wantDTO) {
		return fmt.Errorf("serverdiff: batch ranking differs from library:\nserver:  %s\nlibrary: %s", gotBatch, wantDTO)
	}
	if !maps.Equal(batch.Results[0].Tuples, wantTuples) {
		return fmt.Errorf("serverdiff: batch tuple table differs from library:\nserver:  %v\nlibrary: %v", batch.Results[0].Tuples, wantTuples)
	}
	return nil
}

func (sd *ServerDiff) post(path, contentType string, body io.Reader, out any) error {
	resp, err := sd.ts.Client().Post(sd.ts.URL+path, contentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

func (sd *ServerDiff) deleteSession(id string) {
	req, err := http.NewRequest(http.MethodDelete, sd.ts.URL+"/v1/databases/"+id, nil)
	if err != nil {
		return
	}
	resp, err := sd.ts.Client().Do(req)
	if err == nil {
		resp.Body.Close()
	}
}

// serverDTOs renders a library ranking with the server's own DTO
// constructor, so the comparison is byte-level on identical JSON
// shapes with no mirror encoder to drift.
func serverDTOs(db *rel.Database, exps []core.Explanation) []server.ExplanationDTO {
	out := make([]server.ExplanationDTO, len(exps))
	for i, e := range exps {
		out[i] = server.NewExplanationDTO(db, e)
	}
	return out
}
