package lint

// AllowBudget pins the total number of //lint:allow directives in the
// module. chunklint -stats (run in CI) and TestAllowBudget both fail
// when the live count drifts from this constant, so adding — or
// removing — a suppression forces an explicit, reviewed update here.
// The budget is a ratchet: prefer fixing a finding over raising it.
const AllowBudget = 26
