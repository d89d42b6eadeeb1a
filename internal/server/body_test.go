package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/persist"
)

// TestBodyOverLimit: a request body longer than MaxBodyBytes is
// answered 413 in every form, never cut short into a smaller request
// that succeeds, while a body within the limit goes through.
func TestBodyOverLimit(t *testing.T) {
	var text strings.Builder
	for i := range 10 {
		fmt.Fprintf(&text, "+R(a%d)\n", i)
	}
	limit := int64(len("+R(a0)\n") * 4)
	urls, srvs := startCluster(t, 1, func(_ int, cfg *Config) { cfg.MaxBodyBytes = limit })
	url := urls[0]

	db, err := parser.ParseDatabase(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	columns, err := persist.Encode(&persist.Snapshot{Columns: db.Columns()})
	if err != nil {
		t.Fatal(err)
	}
	handoff, err := persist.Encode(&persist.Snapshot{ID: "d9", Columns: db.Columns()})
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := json.Marshal(CreateDatabaseRequest{Database: text.String()})
	var fits DatabaseInfo
	if code := call(t, http.MethodPost, url+"/v1/databases", text.String()[:limit], &fits); code != 201 || fits.Tuples != 4 {
		t.Fatalf("upload within the limit: status %d, %d tuples; want 201, 4", code, fits.Tuples)
	}
	insert, _ := json.Marshal(InsertTuplesRequest{Tuples: []TupleSpec{{Rel: "R", Args: []string{strings.Repeat("b", int(limit))}}}})

	for _, tc := range []struct {
		name, method, path, contentType string
		body                            []byte
	}{
		{"text", http.MethodPost, "/v1/databases", "text/plain", []byte(text.String())},
		{"json", http.MethodPost, "/v1/databases", "application/json", jsonBody},
		{"columns", http.MethodPost, "/v1/databases", ColumnsContentType, columns},
		{"handoff", http.MethodPut, "/v1/cluster/sessions/d9", "application/octet-stream", handoff},
		{"insert", http.MethodPost, "/v1/databases/" + fits.ID + "/tuples", "application/json", insert},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, url+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", tc.contentType)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body over a %d-byte limit: status %d, want 413", len(tc.body), limit, resp.StatusCode)
			}
		})
	}
	if n := len(srvs[0].reg.list()); n != 1 {
		t.Fatalf("%d sessions after the oversized requests, want only the one that fit", n)
	}
}
