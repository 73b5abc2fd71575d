package selftest

import (
	"context"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strings"
	"time"
)

// Handler serves the self-test tool over HTTP: a form at "/", an
// HTML result at POST /assess, and a JSON API at POST /api/assess.
type Handler struct {
	Service *Service
}

// assessTimeout bounds one assessment.
const assessTimeout = 60 * time.Second

var pageTemplate = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>Sender-validation self-test</title></head>
<body>
<h1>Sender-validation self-test</h1>
<p>Enter a mailbox you operate. The tool delivers one legitimate,
DKIM-signed test message from an instrumented domain and reports which
of SPF, DKIM, and DMARC your mail infrastructure validated.</p>
<form method="POST" action="/assess">
  <input type="email" name="address" placeholder="you@example.com" required>
  <button type="submit">Assess</button>
</form>
{{if .}}
<h2>Result for {{.Address}}</h2>
<pre>{{.Report}}</pre>
{{end}}
</body></html>
`))

type pageData struct {
	Address string
	Report  string
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/" && r.Method == http.MethodGet:
		h.renderPage(w, nil)
	case r.URL.Path == "/assess" && r.Method == http.MethodPost:
		h.handleAssess(w, r, false)
	case r.URL.Path == "/api/assess" && r.Method == http.MethodPost:
		h.handleAssess(w, r, true)
	default:
		http.NotFound(w, r)
	}
}

func (h *Handler) renderPage(w http.ResponseWriter, data *pageData) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTemplate.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (h *Handler) handleAssess(w http.ResponseWriter, r *http.Request, asJSON bool) {
	address := strings.TrimSpace(r.FormValue("address"))
	if address == "" || !strings.Contains(address, "@") {
		http.Error(w, "a valid email address is required", http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), assessTimeout)
	defer cancel()
	assessment, err := h.Service.Assess(ctx, address)
	if err != nil {
		http.Error(w, fmt.Sprintf("assessment failed: %v", err), http.StatusBadGateway)
		return
	}
	if asJSON {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(assessment)
		return
	}
	h.renderPage(w, &pageData{Address: address, Report: Render(assessment)})
}
