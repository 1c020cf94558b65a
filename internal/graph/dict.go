package graph

// Dict interns keyword strings to dense KeywordIDs. The zero value is not
// usable; call NewDict.
type Dict struct {
	words []string
	index map[string]KeywordID
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{index: make(map[string]KeywordID)}
}

// Intern returns the ID for word, assigning a fresh one if needed.
func (d *Dict) Intern(word string) KeywordID {
	if id, ok := d.index[word]; ok {
		return id
	}
	id := KeywordID(len(d.words))
	d.words = append(grow(d.words, 1), word)
	d.index[word] = id
	return id
}

// InternBytes is Intern for a word held in a reused buffer. The map probe
// converts the bytes without allocating; only a word seen for the first time
// is copied into a string.
func (d *Dict) InternBytes(word []byte) KeywordID {
	if id, ok := d.index[string(word)]; ok {
		return id
	}
	return d.Intern(string(word))
}

// Lookup returns the ID for word if it has been interned.
func (d *Dict) Lookup(word string) (KeywordID, bool) {
	id, ok := d.index[word]
	return id, ok
}

// Word returns the string for id. It panics on out-of-range IDs, which
// indicate a bug (IDs are only ever produced by Intern).
func (d *Dict) Word(id KeywordID) string { return d.words[id] }

// Size returns the number of interned keywords.
func (d *Dict) Size() int { return len(d.words) }

// Words returns the interned strings indexed by KeywordID. The slice is owned
// by the dictionary.
func (d *Dict) Words() []string { return d.words }

// Clone returns an independent copy of the dictionary.
func (d *Dict) Clone() *Dict {
	c := &Dict{
		words: append([]string(nil), d.words...),
		index: make(map[string]KeywordID, len(d.index)),
	}
	for w, id := range d.index {
		c.index[w] = id
	}
	return c
}

// LookupAll resolves every word, silently dropping unknown ones, and returns
// the sorted, deduplicated ID set along with the number of unknown words.
func (d *Dict) LookupAll(words []string) ([]KeywordID, int) {
	ids := make([]KeywordID, 0, len(words))
	missing := 0
	for _, w := range words {
		if id, ok := d.index[w]; ok {
			ids = append(ids, id)
		} else {
			missing++
		}
	}
	return SortKeywordSet(ids), missing
}
