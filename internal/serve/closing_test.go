package serve

import (
	"context"
	"testing"
	"time"
)

// TestServeListenerErrorClosesClosing pins the regression where Serve's
// listener-error exit path returned without closing s.closing, leaving
// attached SSE streams waiting on a channel nobody would ever close.
func TestServeListenerErrorClosesClosing(t *testing.T) {
	s := newServer(Config{Addr: "127.0.0.1:0"})
	if _, err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	// Yank the listener out from under Serve: hs.Serve fails before the
	// context is ever canceled.
	if err := s.ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(context.Background()); err == nil {
		t.Fatal("Serve returned nil after the listener died")
	}
	select {
	case <-s.closing:
	case <-time.After(time.Second):
		t.Error("closing channel never closed on the listener-error exit path")
	}
}
