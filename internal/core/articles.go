package core

import (
	"fmt"
	"strings"
)

// Feature is one of the six storage-system features the paper derives from
// the GDPR articles (§3.1).
type Feature int

// The six features of a GDPR-compliant storage system.
const (
	// FeatureTimelyDeletion: TTLs plus prompt reclamation everywhere.
	FeatureTimelyDeletion Feature = iota
	// FeatureMonitoring: audit trail of all data/control path operations.
	FeatureMonitoring
	// FeatureIndexing: metadata-based access to groups of data.
	FeatureIndexing
	// FeatureAccessControl: fine-grained, dynamic access control.
	FeatureAccessControl
	// FeatureEncryption: encryption at rest and in transit.
	FeatureEncryption
	// FeatureLocation: control over the physical storage location.
	FeatureLocation
	// FeatureAll marks articles (5.2 accountability, 13 consent) whose
	// requirements span every feature.
	FeatureAll
)

// String returns the feature name as used in Table 1.
func (f Feature) String() string {
	switch f {
	case FeatureTimelyDeletion:
		return "Timely deletion"
	case FeatureMonitoring:
		return "Monitoring"
	case FeatureIndexing:
		return "Metadata indexing"
	case FeatureAccessControl:
		return "Access control"
	case FeatureEncryption:
		return "Encryption"
	case FeatureLocation:
		return "Manage data location"
	case FeatureAll:
		return "All"
	default:
		return "Unknown"
	}
}

// Article is one GDPR article row of Table 1, mapped to the storage
// features it requires and to the modules of this repository implementing
// them.
type Article struct {
	// Number is the article number as printed in Table 1 ("5.1", "17",
	// "33, 34", ...).
	Number string
	// Name is the article title.
	Name string
	// Requirement is the key requirement as summarised in Table 1.
	Requirement string
	// Features are the storage features the requirement maps to.
	Features []Feature
	// Modules names the packages of this repository implementing it.
	Modules []string
}

// Articles is Table 1 of the paper: the thirteen GDPR articles that
// significantly impact the design, interfacing, or performance of storage
// systems, mapped to storage features.
var Articles = []Article{
	{
		Number:      "5.1",
		Name:        "Purpose limitation",
		Requirement: "Data must be collected and used for specific purposes",
		Features:    []Feature{FeatureIndexing},
		Modules:     []string{"core (Metadata.Purposes, KeysByPurpose)"},
	},
	{
		Number:      "5.1",
		Name:        "Storage limitation",
		Requirement: "Data should not be stored beyond its purpose",
		Features:    []Feature{FeatureTimelyDeletion},
		Modules:     []string{"store (TTL, expiry cycles)", "core (RequireTTL)"},
	},
	{
		Number:      "5.2",
		Name:        "Accountability",
		Requirement: "Controller must be able to demonstrate compliance",
		Features:    []Feature{FeatureAll},
		Modules:     []string{"audit", "core"},
	},
	{
		Number:      "13",
		Name:        "Conditions for data collection",
		Requirement: "Get user's consent on how their data would be managed",
		Features:    []Feature{FeatureAll},
		Modules:     []string{"core (PutOptions: purposes, TTL, recipients)"},
	},
	{
		Number:      "15",
		Name:        "Right of access by users",
		Requirement: "Provide users a timely access to all their data",
		Features:    []Feature{FeatureIndexing},
		Modules:     []string{"core (GetUser, Access)"},
	},
	{
		Number:      "17",
		Name:        "Right to be forgotten",
		Requirement: "Find and delete groups of data",
		Features:    []Feature{FeatureTimelyDeletion},
		Modules:     []string{"core (Forget)", "aof (Rewrite)", "cryptoutil (Keyring.Shred)"},
	},
	{
		Number:      "20",
		Name:        "Right to data portability",
		Requirement: "Transfer data to other controllers upon request",
		Features:    []Feature{FeatureIndexing},
		Modules:     []string{"core (Export)"},
	},
	{
		Number:      "21",
		Name:        "Right to object",
		Requirement: "Data should not be used for any objected reasons",
		Features:    []Feature{FeatureIndexing},
		Modules:     []string{"core (Object, Metadata.Objections)"},
	},
	{
		Number:      "25",
		Name:        "Protection by design and by default",
		Requirement: "Safeguard and restrict access to data",
		Features:    []Feature{FeatureAccessControl, FeatureEncryption},
		Modules:     []string{"acl", "cryptoutil", "tlsproxy"},
	},
	{
		Number:      "30",
		Name:        "Records of processing activity",
		Requirement: "Store audit logs of all operations",
		Features:    []Feature{FeatureMonitoring},
		Modules:     []string{"audit"},
	},
	{
		Number:      "32",
		Name:        "Security of data",
		Requirement: "Implement appropriate data security measures",
		Features:    []Feature{FeatureAccessControl, FeatureEncryption},
		Modules:     []string{"acl", "cryptoutil", "tlsproxy"},
	},
	{
		Number:      "33, 34",
		Name:        "Notify data breaches",
		Requirement: "Share insights and audit trails from concerned systems",
		Features:    []Feature{FeatureMonitoring},
		Modules:     []string{"audit (Breach)", "core (Breach)"},
	},
	{
		Number:      "46",
		Name:        "Transfers subject to safeguards",
		Requirement: "Control where the data resides",
		Features:    []Feature{FeatureLocation},
		Modules:     []string{"core (AllowedLocations, Metadata.Location)"},
	},
}

// FormatTable1 renders the article/feature mapping in the shape of the
// paper's Table 1.
func FormatTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %-38s %-58s %s\n", "No.", "GDPR article", "Key requirement", "Storage feature")
	for _, a := range Articles {
		names := make([]string, len(a.Features))
		for i, f := range a.Features {
			names[i] = f.String()
		}
		fmt.Fprintf(&b, "%-7s %-38s %-58s %s\n", a.Number, a.Name, a.Requirement, strings.Join(names, ", "))
	}
	return b.String()
}
