package pvfs

import (
	"math"
	"strings"
	"testing"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// TestServerRefusesWrappingRanges sends requests whose byte ranges
// overflow int64 straight to a server's handler. Each must be refused
// by the handler's own range check, before any region is walked.
func TestServerRefusesWrappingRanges(t *testing.T) {
	env := transport.NewRealEnv()
	s := NewServer(transport.NewMemNetwork(), "x", 0, CostModel{})
	lay := wire.FileLayout{Handle: 1, StripSize: 64, NServers: 1}
	word := dataloop.FromType(datatype.Int64).Encode(nil) // one 8-byte contig loop
	cases := []struct {
		name string
		req  []byte
		want string
	}{
		{"contig off+n wraps", wire.EncodeContig(&wire.ContigReq{
			Layout: lay, Off: math.MaxInt64 - 10, N: 100,
		}, false), "bad range"},
		{"contig write off+n wraps", wire.EncodeContig(&wire.ContigReq{
			Layout: lay, Off: math.MaxInt64 - 10, N: 100, Data: make([]byte, 100),
		}, true), "bad range"},
		{"list region off+len wraps", wire.EncodeListIO(&wire.ListIOReq{
			Layout: lay, Regions: []datatype.Region{{Off: math.MaxInt64 - 10, Len: 100}},
		}, false), "bad region"},
		{"dtype pos+nbytes wraps", wire.EncodeDtype(&wire.DtypeReq{
			Layout: lay, Loop: word, Count: 1, Pos: 1 << 62, NBytes: 1 << 62,
		}, false), "bad dtype range"},
		{"dtype count*size wraps", wire.EncodeDtype(&wire.DtypeReq{
			Layout: lay, Loop: word, Count: 1<<61 + 1, Pos: 0, NBytes: 8,
		}, false), "bad dtype range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := s.handle(env, nil, tc.req)
			if err != nil {
				t.Fatalf("handle: %v", err)
			}
			_, v, err := wire.DecodeMsg(raw)
			if err != nil {
				t.Fatal(err)
			}
			resp := v.(*wire.IOResp)
			if resp.OK {
				t.Fatal("wrapping range answered OK")
			}
			if !strings.Contains(resp.Err, tc.want) {
				t.Fatalf("refused with %q, want the handler's %q", resp.Err, tc.want)
			}
		})
	}
}
