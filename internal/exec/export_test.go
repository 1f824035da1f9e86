package exec

// Loans returns how many buffers each FreeList of the process has on
// loan, by the list's name.
func Loans() map[string]int {
	listsMu.Lock()
	defer listsMu.Unlock()
	loans := make(map[string]int, len(lists))
	for name, l := range lists {
		loans[name] = l.onLoan()
	}
	return loans
}
