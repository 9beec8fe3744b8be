package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	var c Counter
	c.Add(11)
	type status struct {
		Uptime float64 `json:"uptime"`
		Demo   int64   `json:"-"`
	}
	fams := []Family[status]{{Name: "oij_demo_total", Help: "demo", Kind: KindCounter,
		Value: func(s *status) float64 { return float64(s.Demo) }}}
	a, err := ServeAdmin("127.0.0.1:0", func() *status { return &status{Uptime: 1.25, Demo: c.Load()} }, fams)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	base := fmt.Sprintf("http://%s", a.Addr())

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "oij_demo_total 11") {
		t.Fatalf("metrics: code %d body %q", code, body)
	}

	code, body = get(t, base+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz code %d", code)
	}
	var st status
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.Uptime != 1.25 {
		t.Fatalf("statusz body %q err %v", body, err)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: code %d", code)
	}
}

func TestAdminNoStatus(t *testing.T) {
	a, err := ServeAdmin[struct{}]("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	code, _ := get(t, fmt.Sprintf("http://%s/statusz", a.Addr()))
	if code != http.StatusNotFound {
		t.Fatalf("statusz without callback: code %d, want 404", code)
	}
}
