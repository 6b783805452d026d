package bench

import (
	"fmt"
	"sort"
	"strings"

	"dtio/internal/iostats"
)

// CharacteristicsTable renders results in the layout of the paper's
// Tables 1-3: desired data, data accessed, I/O ops, and resent data per
// client, plus the request-payload column that motivates datatype I/O.
func CharacteristicsTable(title string, results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %14s %14s %12s %14s %14s\n",
		"Method", "Desired/Client", "Accessed/Client", "IOOps/Client", "Resent/Client", "ReqPayload")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-14s ERROR: %v\n", r.Method, r.Err)
			continue
		}
		s := r.PerClient
		fmt.Fprintf(&b, "%-14s %14s %14s %12d %14s %14s\n",
			r.Method.String(),
			iostats.MB(s.DesiredBytes),
			iostats.MB(s.AccessedBytes),
			s.IOOps,
			iostats.MB(s.ResentBytes),
			iostats.MB(s.ReqBytes))
	}
	return b.String()
}

// BandwidthTable renders a performance figure as text: one row per
// client count, one column per method.
func BandwidthTable(title string, results []Result) string {
	methods := map[string]bool{}
	clients := map[int]bool{}
	cell := map[string]map[int]Result{}
	for _, r := range results {
		m := r.Method.String()
		methods[m] = true
		clients[r.Clients] = true
		if cell[m] == nil {
			cell[m] = map[int]Result{}
		}
		cell[m][r.Clients] = r
	}
	var ms []string
	for m := range methods {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	var cs []int
	for c := range clients {
		cs = append(cs, c)
	}
	sort.Ints(cs)

	var b strings.Builder
	fmt.Fprintf(&b, "%s (aggregate MB/s)\n", title)
	fmt.Fprintf(&b, "%8s", "clients")
	for _, m := range ms {
		fmt.Fprintf(&b, " %12s", m)
	}
	b.WriteString("\n")
	for _, c := range cs {
		fmt.Fprintf(&b, "%8d", c)
		for _, m := range ms {
			r, ok := cell[m][c]
			switch {
			case !ok:
				fmt.Fprintf(&b, " %12s", "-")
			case r.Err != nil:
				fmt.Fprintf(&b, " %12s", "ERR")
			default:
				fmt.Fprintf(&b, " %12.2f", r.BandwidthMBs())
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// UtilizationTable renders the bottleneck analysis of a result set.
func UtilizationTable(title string, results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (busy fraction of run)\n", title)
	fmt.Fprintf(&b, "%-10s %8s %9s %9s %9s %9s %9s\n",
		"Method", "clients", "srv-disk", "srv-nic", "srv-cpu", "cli-nic", "cli-cpu")
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		u := r.Util
		fmt.Fprintf(&b, "%-10s %8d %8.0f%% %8.0f%% %8.0f%% %8.0f%% %8.0f%%\n",
			r.Method.String(), r.Clients,
			u.ServerDisk*100, u.ServerNIC*100, u.ServerCPU*100,
			u.ClientNIC*100, u.ClientCPU*100)
	}
	return b.String()
}
