package trace

import (
	"bytes"
	"testing"
)

func sampleLog() *CommLog {
	return &CommLog{N: 2, Events: []CommEvent{
		{Rank: 0, Kind: CommPhase, Name: "exchange"},
		{Rank: 0, Kind: CommSend, Peer: 1, Tag: 7, Phase: "exchange"},
		{Rank: 0, Kind: CommColl, Name: "Allreduce", Phase: "exchange"},
		{Rank: 1, Kind: CommRecv, Peer: 0, Tag: 7, Phase: "main"},
		{Rank: 1, Kind: CommColl, Name: "Allreduce", Phase: "main"},
	}}
}

func TestCommLogJSONRoundTrip(t *testing.T) {
	orig := sampleLog()
	data, err := orig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Error("JSON output missing trailing newline")
	}
	l, err := ParseCommLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if l.N != 2 || len(l.Events) != 5 {
		t.Fatalf("round trip lost shape: n=%d events=%d", l.N, len(l.Events))
	}
	for i, ev := range orig.Events {
		if l.Events[i] != ev {
			t.Fatalf("event %d changed across round trip: %+v vs %+v", i, l.Events[i], ev)
		}
	}
	// Serialization is deterministic byte for byte.
	again, err := orig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("JSON output not deterministic")
	}
}

func TestCommLogPerRank(t *testing.T) {
	per := sampleLog().PerRank()
	if len(per) != 2 {
		t.Fatalf("PerRank returned %d ranks", len(per))
	}
	if len(per[0]) != 3 || len(per[1]) != 2 {
		t.Fatalf("per-rank split wrong: %d/%d", len(per[0]), len(per[1]))
	}
	if per[0][1].Kind != CommSend || per[1][0].Kind != CommRecv {
		t.Error("per-rank program order lost")
	}
}

// TestParseCommLogIgnoresTimestamp keeps logs written before events lost
// their virtual timestamp readable: decoding skips the unknown "t" field.
func TestParseCommLogIgnoresTimestamp(t *testing.T) {
	l, err := ParseCommLog([]byte(`{"n":1,"events":[{"rank":0,"t":0.5,"kind":"coll","name":"Barrier","phase":"main"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := (CommEvent{Kind: CommColl, Name: "Barrier", Phase: "main"}); len(l.Events) != 1 || l.Events[0] != want {
		t.Errorf("parsed %+v, want [%+v]", l.Events, want)
	}
}

func TestParseCommLogRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"malformed", `{`},
		{"zero ranks", `{"n":0,"events":[]}`},
		{"negative rank", `{"n":2,"events":[{"rank":-1,"t":0,"kind":"phase"}]}`},
		{"rank beyond n", `{"n":2,"events":[{"rank":2,"t":0,"kind":"send"}]}`},
		{"unknown kind", `{"n":2,"events":[{"rank":0,"t":0,"kind":"mystery"}]}`},
	}
	for _, tc := range cases {
		if _, err := ParseCommLog([]byte(tc.data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
