package experiments

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"herdkv/internal/cluster"
)

// sensitivityDoc is the committed sensitivity matrix that `make
// sensitivity` (TestSensitivity, build tag sensitivity) writes.
const sensitivityDoc = "../../docs/SENSITIVITY.md"

// specField is one numeric cluster.Spec field, addressed by its path
// ("Cores", "NIC.TxWQE") and its reflect index.
type specField struct {
	path  string
	index []int
}

// specFields returns every numeric field of cluster.Spec, those of its
// nested parameter structs included, in declaration order.
func specFields() []specField {
	var out []specField
	var walk func(t reflect.Type, prefix string, index []int)
	walk = func(t reflect.Type, prefix string, index []int) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			idx := append(append([]int(nil), index...), i)
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(f.Type, prefix+f.Name+".", idx)
			case reflect.Int, reflect.Int64, reflect.Float64:
				out = append(out, specField{path: prefix + f.Name, index: idx})
			}
		}
	}
	walk(reflect.TypeOf(cluster.Spec{}), "", nil)
	return out
}

// sensitivityReasons says why a constant stays in the model although
// ×0.9 and ×1.1 move no figure metric by more than 1%. The matrix prints
// the reason on each of the constant's rows that names no figure.
var sensitivityReasons = map[string]string{
	"MaxNodes":       "Table 2 capacity: the testbed's size, printed by table2; no experiment builds that many machines",
	"Cores":          "Table 2 capacity: cores per machine; no experiment uses more than 14",
	"Link.MTU":       "protocol input: payloads above it are segmented (TestMTUSegmentation); only FaRM-em's 6 KB READs at sv=1000 cross 4 KiB, and ±10% moves them 0.69%",
	"NIC.ReadWindow": "protocol input: the per-QP fence of 16 outstanding READs (Section 3.2.2); the READ ceilings come from RxReadReq and TxReadReq+RxReadResp",
	"NIC.RxAck":      "the requester's share of an RC ACK, charged when the WRITE or SEND issues; ±10% of its 2 ns moves no metric by 1%, but at 0 fig5's RC `basic_mops` rise 1.8%",
}

// sensitivityRow is one constant's row for one preset.
type sensitivityRow struct {
	figures string // targets moved by more than 1%, or "—"
	reason  string
}

// readSensitivityRows parses the matrix's rows, keyed "path/preset".
func readSensitivityRows(t *testing.T) map[string]sensitivityRow {
	t.Helper()
	doc, err := os.ReadFile(sensitivityDoc)
	if err != nil {
		t.Fatalf("%v (run make sensitivity)", err)
	}
	rows := map[string]sensitivityRow{}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) != 8 {
			t.Fatalf("malformed matrix row: %q", line)
		}
		path := strings.Trim(strings.TrimSpace(cells[1]), "`")
		preset := strings.TrimSpace(cells[2])
		key := path + "/" + preset
		if _, dup := rows[key]; dup {
			t.Errorf("%s has two %s rows", path, preset)
		}
		rows[key] = sensitivityRow{figures: strings.TrimSpace(cells[4]), reason: strings.TrimSpace(cells[6])}
	}
	return rows
}

// TestSensitivityRows keeps docs/SENSITIVITY.md in step with cluster.Spec:
// every numeric field has one row per preset, each row names a figure
// the field moves by more than 1% or says why the field stays, and no
// row or reason outlives its field.
func TestSensitivityRows(t *testing.T) {
	rows := readSensitivityRows(t)
	fields := map[string]bool{}
	for _, f := range specFields() {
		fields[f.path] = true
		for _, spec := range cluster.Table2() {
			key := f.path + "/" + spec.Name
			r, ok := rows[key]
			if !ok {
				t.Errorf("%s has no %s row in %s (run make sensitivity)", f.path, spec.Name, sensitivityDoc)
				continue
			}
			delete(rows, key)
			if (r.figures == "" || r.figures == "—") && r.reason == "" {
				t.Errorf("%s/%s moves no figure and gives no reason: delete or fold it, or add it to sensitivityReasons", f.path, spec.Name)
			}
		}
	}
	for key := range rows {
		t.Errorf("stale row %s: cluster.Spec has no such field or preset", key)
	}
	for path := range sensitivityReasons {
		if !fields[path] {
			t.Errorf("sensitivityReasons names %s, which cluster.Spec does not have", path)
		}
	}
}
