package core

// PoisonPages switches the page pool's test hook (see poisonPages) and
// returns a function restoring the previous setting.
func PoisonPages() (restore func()) {
	old := poisonPages
	poisonPages = true
	return func() { poisonPages = old }
}
