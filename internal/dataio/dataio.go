// Package dataio loads and stores the three MPA data sources in the
// on-disk formats organizations actually keep them in: inventory records
// as JSON, trouble tickets as CSV exports from incident-management
// systems, and configuration snapshots as a RANCID-style directory tree
// (one directory per device, one timestamped file per snapshot).
//
// These formats make the framework usable on real data: export your
// inventory and tickets, point your RANCID/HPNA archive at a directory,
// and run the same pipeline the synthetic experiments use.
package dataio

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mpa/internal/netmodel"
	"mpa/internal/nms"
	"mpa/internal/ticketing"
)

// ---- Inventory (JSON) ----

// inventoryDoc is the JSON wire form of an inventory.
type inventoryDoc struct {
	Networks []networkDoc `json:"networks"`
}

type networkDoc struct {
	Name         string      `json:"name"`
	Services     []string    `json:"services,omitempty"`
	Interconnect bool        `json:"interconnect,omitempty"`
	Devices      []deviceDoc `json:"devices"`
}

type deviceDoc struct {
	Name     string `json:"name"`
	Vendor   string `json:"vendor"`
	Model    string `json:"model"`
	Role     string `json:"role"`
	Firmware string `json:"firmware"`
	MgmtIP   string `json:"mgmt_ip"`
}

// vendorFromString parses a vendor name.
func vendorFromString(s string) (netmodel.Vendor, error) {
	switch strings.ToLower(s) {
	case "cisco":
		return netmodel.VendorCisco, nil
	case "juniper":
		return netmodel.VendorJuniper, nil
	default:
		return 0, fmt.Errorf("dataio: unknown vendor %q", s)
	}
}

// roleFromString parses a role name.
func roleFromString(s string) (netmodel.Role, error) {
	for r := netmodel.Role(0); int(r) < netmodel.NumRoles; r++ {
		if r.String() == strings.ToLower(s) {
			return r, nil
		}
	}
	return 0, fmt.Errorf("dataio: unknown role %q", s)
}

// WriteInventory serializes an inventory as indented JSON.
func WriteInventory(w io.Writer, inv *netmodel.Inventory) error {
	doc := inventoryDoc{}
	for _, nw := range inv.Networks {
		nd := networkDoc{
			Name:         nw.Name,
			Services:     nw.Services,
			Interconnect: nw.Interconnect,
		}
		for _, d := range nw.Devices {
			nd.Devices = append(nd.Devices, deviceDoc{
				Name:     d.Name,
				Vendor:   d.Vendor.String(),
				Model:    d.Model,
				Role:     d.Role.String(),
				Firmware: d.Firmware,
				MgmtIP:   d.MgmtIP,
			})
		}
		doc.Networks = append(doc.Networks, nd)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadInventory parses an inventory from JSON. Device network fields are
// filled from the containing network.
func ReadInventory(r io.Reader) (*netmodel.Inventory, error) {
	var doc inventoryDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("dataio: decoding inventory: %w", err)
	}
	inv := &netmodel.Inventory{}
	seen := map[string]bool{}
	for _, nd := range doc.Networks {
		if nd.Name == "" {
			return nil, fmt.Errorf("dataio: network with empty name")
		}
		if seen[nd.Name] {
			return nil, fmt.Errorf("dataio: duplicate network %q", nd.Name)
		}
		seen[nd.Name] = true
		nw := &netmodel.Network{
			Name:         nd.Name,
			Services:     nd.Services,
			Interconnect: nd.Interconnect,
		}
		for _, dd := range nd.Devices {
			vendor, err := vendorFromString(dd.Vendor)
			if err != nil {
				return nil, err
			}
			role, err := roleFromString(dd.Role)
			if err != nil {
				return nil, err
			}
			nw.Devices = append(nw.Devices, &netmodel.Device{
				Name:     dd.Name,
				Network:  nd.Name,
				Vendor:   vendor,
				Model:    dd.Model,
				Role:     role,
				Firmware: dd.Firmware,
				MgmtIP:   dd.MgmtIP,
			})
		}
		inv.Networks = append(inv.Networks, nw)
	}
	return inv, nil
}

// ---- Tickets (CSV) ----

// ticketHeader is the CSV column set, compatible with common
// incident-management exports.
var ticketHeader = []string{
	"id", "network", "devices", "origin", "opened", "resolved", "symptom", "notes",
}

// WriteTickets serializes a ticket log as CSV (RFC 4180, header row
// included; times in RFC 3339).
func WriteTickets(w io.Writer, log *ticketing.Log) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(ticketHeader); err != nil {
		return err
	}
	for _, t := range log.All() {
		resolved := ""
		if !t.Resolved.IsZero() {
			resolved = t.Resolved.UTC().Format(time.RFC3339)
		}
		rec := []string{
			strconv.Itoa(t.ID),
			t.Network,
			strings.Join(t.Devices, ";"),
			t.Origin.String(),
			t.Opened.UTC().Format(time.RFC3339),
			resolved,
			t.Symptom,
			t.Notes,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTickets parses a ticket CSV produced by WriteTickets (or a
// compatible export). IDs are reassigned by the log in row order.
func ReadTickets(r io.Reader) (*ticketing.Log, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataio: reading ticket header: %w", err)
	}
	if len(header) != len(ticketHeader) {
		return nil, fmt.Errorf("dataio: ticket header has %d columns, want %d", len(header), len(ticketHeader))
	}
	for i, h := range ticketHeader {
		if !strings.EqualFold(strings.TrimSpace(header[i]), h) {
			return nil, fmt.Errorf("dataio: ticket column %d is %q, want %q", i, header[i], h)
		}
	}
	log := ticketing.NewLog()
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: ticket line %d: %w", line, err)
		}
		origin, err := ticketing.ParseOrigin(strings.ToLower(rec[3]))
		if err != nil {
			return nil, fmt.Errorf("dataio: ticket line %d: %w", line, err)
		}
		opened, err := time.Parse(time.RFC3339, rec[4])
		if err != nil {
			return nil, fmt.Errorf("dataio: ticket line %d: bad opened time: %w", line, err)
		}
		var resolved time.Time
		if rec[5] != "" {
			resolved, err = time.Parse(time.RFC3339, rec[5])
			if err != nil {
				return nil, fmt.Errorf("dataio: ticket line %d: bad resolved time: %w", line, err)
			}
		}
		var devices []string
		if rec[2] != "" {
			devices = strings.Split(rec[2], ";")
		}
		log.File(ticketing.Ticket{
			Network:  rec[1],
			Devices:  devices,
			Origin:   origin,
			Opened:   opened,
			Resolved: resolved,
			Symptom:  rec[6],
			Notes:    rec[7],
		})
	}
	return log, nil
}

// ---- Snapshot archive (RANCID-style directory tree) ----

// Snapshot files live at <root>/<device>/<RFC3339Nano time>__<login>.cfg,
// with colons in the timestamp replaced by '-' for filesystem
// compatibility. File contents are the raw configuration text. A
// whole-second time has no fractional part, so names written before
// sub-second stamps existed parse unchanged.

const snapshotExt = ".cfg"

// snapshotFileName encodes a snapshot's metadata into its file name.
func snapshotFileName(t time.Time, login string) string {
	stamp := strings.ReplaceAll(t.UTC().Format(time.RFC3339Nano), ":", "-")
	return stamp + "__" + login + snapshotExt
}

// parseSnapshotFileName recovers time and login from a snapshot file name.
func parseSnapshotFileName(name string) (time.Time, string, error) {
	base := strings.TrimSuffix(name, snapshotExt)
	if base == name {
		return time.Time{}, "", fmt.Errorf("dataio: snapshot file %q lacks %s extension", name, snapshotExt)
	}
	parts := strings.SplitN(base, "__", 2)
	if len(parts) != 2 {
		return time.Time{}, "", fmt.Errorf("dataio: snapshot file %q lacks __login suffix", name)
	}
	stamp := strings.Replace(parts[0], "-", ":", -1)
	// Undo the replacement inside the date part: RFC3339 is
	// 2006-01-02T15:04:05Z; only the time colons were rewritten, so
	// restore the first two dashes.
	stamp = strings.Replace(stamp, ":", "-", 2)
	t, err := time.Parse(time.RFC3339Nano, stamp)
	if err != nil {
		return time.Time{}, "", fmt.Errorf("dataio: snapshot file %q: bad timestamp: %w", name, err)
	}
	return t, parts[1], nil
}

// checkPathElement rejects a name that is not exactly one path element,
// so a device or login can never address a file outside its directory.
func checkPathElement(what, name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\\x00") {
		return fmt.Errorf("dataio: %s %q is not a single path element", what, name)
	}
	return nil
}

// WriteArchive stores every snapshot of the archive under root, one
// directory per device. It writes nothing if a device name or snapshot
// file name is not a single path element, or if two snapshots of one
// device have the same time and login and so would share a file.
func WriteArchive(root string, arch *nms.Archive) error {
	devices := arch.Devices()
	for _, dev := range devices {
		if err := checkPathElement("device", dev); err != nil {
			return err
		}
		names := map[string]bool{}
		for _, s := range arch.Snapshots(dev) {
			name := snapshotFileName(s.Time, s.Login)
			if err := checkPathElement("snapshot file", name); err != nil {
				return err
			}
			if names[name] {
				return fmt.Errorf("dataio: device %s has two snapshots named %s", dev, name)
			}
			names[name] = true
		}
	}
	for _, dev := range devices {
		dir := filepath.Join(root, dev)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("dataio: %w", err)
		}
		for _, s := range arch.Snapshots(dev) {
			path := filepath.Join(dir, snapshotFileName(s.Time, s.Login))
			if err := os.WriteFile(path, []byte(s.Text), 0o644); err != nil {
				return fmt.Errorf("dataio: %w", err)
			}
		}
	}
	return nil
}

// ReadArchive loads a RANCID-style snapshot tree into an archive.
// specialAccounts lists the logins to classify as automation accounts.
// Snapshots of one device are ordered by time; equal times keep file-name
// order.
func ReadArchive(root string, specialAccounts []string) (*nms.Archive, error) {
	arch := nms.NewArchive()
	for _, acct := range specialAccounts {
		arch.MarkSpecialAccount(acct)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		device := e.Name()
		dir := filepath.Join(root, device)
		files, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("dataio: %w", err)
		}
		var snaps []*nms.Snapshot
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), snapshotExt) {
				continue
			}
			t, login, err := parseSnapshotFileName(f.Name())
			if err != nil {
				return nil, err
			}
			text, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				return nil, fmt.Errorf("dataio: %w", err)
			}
			snaps = append(snaps, &nms.Snapshot{Device: device, Time: t, Login: login, Text: string(text)})
		}
		sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].Time.Before(snaps[j].Time) })
		for _, s := range snaps {
			if err := arch.Record(s); err != nil {
				return nil, err
			}
		}
	}
	return arch, nil
}

// ---- Whole-organization convenience ----

// SaveOrganization writes inventory.json, tickets.csv, and a snapshots/
// tree under dir.
func SaveOrganization(dir string, inv *netmodel.Inventory, arch *nms.Archive, tickets *ticketing.Log) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	if err := writeFile(filepath.Join(dir, "inventory.json"), func(w io.Writer) error {
		return WriteInventory(w, inv)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "tickets.csv"), func(w io.Writer) error {
		return WriteTickets(w, tickets)
	}); err != nil {
		return err
	}
	return WriteArchive(filepath.Join(dir, "snapshots"), arch)
}

// writeFile writes what write produces to path. os.WriteFile reports a
// failed Close, which can mean the data never reached disk.
func writeFile(path string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	return nil
}

// LoadOrganization reads the layout SaveOrganization writes.
func LoadOrganization(dir string, specialAccounts []string) (*netmodel.Inventory, *nms.Archive, *ticketing.Log, error) {
	invF, err := os.Open(filepath.Join(dir, "inventory.json"))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dataio: %w", err)
	}
	defer invF.Close()
	inv, err := ReadInventory(invF)
	if err != nil {
		return nil, nil, nil, err
	}
	tixF, err := os.Open(filepath.Join(dir, "tickets.csv"))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dataio: %w", err)
	}
	defer tixF.Close()
	tickets, err := ReadTickets(tixF)
	if err != nil {
		return nil, nil, nil, err
	}
	arch, err := ReadArchive(filepath.Join(dir, "snapshots"), specialAccounts)
	if err != nil {
		return nil, nil, nil, err
	}
	return inv, arch, tickets, nil
}
