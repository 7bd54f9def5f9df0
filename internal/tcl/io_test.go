package tcl

import (
	"os"
	"strings"
	"testing"
)

func TestFileIO(t *testing.T) {
	in := New()
	dir := t.TempDir()
	path := dir + "/data.txt"
	// Write.
	fid := evalOK(t, in, "open "+path+" w")
	if !strings.HasPrefix(fid, "file") {
		t.Fatalf("fileId = %q", fid)
	}
	evalOK(t, in, "puts "+fid+" {first line}")
	evalOK(t, in, "puts "+fid+" {second line}")
	evalOK(t, in, "puts -nonewline "+fid+" {no newline}")
	evalOK(t, in, "close "+fid)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "first line\nsecond line\nno newline" {
		t.Fatalf("file content = %q", data)
	}
	// Read back line by line.
	fid2 := evalOK(t, in, "open "+path)
	wantEval(t, in, "gets "+fid2+" line", "10")
	wantEval(t, in, "set line", "first line")
	wantEval(t, in, "gets "+fid2, "second line")
	wantEval(t, in, "eof "+fid2, "0")
	wantEval(t, in, "gets "+fid2, "no newline")
	wantEval(t, in, "eof "+fid2, "1")
	wantEval(t, in, "gets "+fid2+" line", "-1")
	evalOK(t, in, "close "+fid2)
	// Whole-file read.
	fid3 := evalOK(t, in, "open "+path)
	got := evalOK(t, in, "read "+fid3)
	if got != "first line\nsecond line\nno newline" {
		t.Errorf("read = %q", got)
	}
	evalOK(t, in, "close "+fid3)
	// Byte-count read.
	fid4 := evalOK(t, in, "open "+path)
	wantEval(t, in, "read "+fid4+" 5", "first")
	evalOK(t, in, "close "+fid4)
}

func TestFileIOErrors(t *testing.T) {
	in := New()
	wantErr(t, in, "open /no/such/dir/file.txt", "couldn't open")
	wantErr(t, in, "open x badmode", "illegal access mode")
	wantErr(t, in, "gets file99", "can not find channel")
	wantErr(t, in, "close file99", "can not find channel")
	dir := t.TempDir()
	fid := evalOK(t, in, "open "+dir+"/w.txt w")
	wantErr(t, in, "gets "+fid, "not opened for reading")
	evalOK(t, in, "close "+fid)
	wantErr(t, in, "gets "+fid, "can not find channel") // closed
}

func TestAppendMode(t *testing.T) {
	in := New()
	dir := t.TempDir()
	path := dir + "/log.txt"
	f1 := evalOK(t, in, "open "+path+" w")
	evalOK(t, in, "puts "+f1+" one; close "+f1)
	f2 := evalOK(t, in, "open "+path+" a")
	evalOK(t, in, "puts "+f2+" two; flush "+f2+"; close "+f2)
	data, _ := os.ReadFile(path)
	if string(data) != "one\ntwo\n" {
		t.Errorf("append result = %q", data)
	}
}

func TestFileCommand(t *testing.T) {
	in := New()
	dir := t.TempDir()
	path := dir + "/x.tar.gz"
	if err := os.WriteFile(path, []byte("12345"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantEval(t, in, "file exists "+path, "1")
	wantEval(t, in, "file exists "+dir+"/nope", "0")
	wantEval(t, in, "file isfile "+path, "1")
	wantEval(t, in, "file isdirectory "+dir, "1")
	wantEval(t, in, "file size "+path, "5")
	wantEval(t, in, "file tail "+path, "x.tar.gz")
	wantEval(t, in, "file dirname "+path, dir)
	wantEval(t, in, "file extension "+path, ".gz")
	wantEval(t, in, "file rootname "+path, dir+"/x.tar")
	wantEval(t, in, "file dirname plain", ".")
	wantEval(t, in, "file readable "+path, "1")
	wantErr(t, in, "file bogus "+path, "bad file option")
}

func TestExecCommand(t *testing.T) {
	if _, err := os.Stat("/bin/echo"); err != nil {
		t.Skip("no /bin/echo")
	}
	in := New()
	wantEval(t, in, "exec /bin/echo hello exec", "hello exec")
	wantErr(t, in, "exec /no/such/program", "couldn't execute")
	if _, err := os.Stat("/bin/false"); err == nil {
		wantErr(t, in, "exec /bin/false", "status")
	}
}

func TestCaseCommand(t *testing.T) {
	in := New()
	wantEval(t, in, "case abc in {a* {set r starts-a} default {set r other}}", "starts-a")
	wantEval(t, in, "case xyz in {a* {set r starts-a} default {set r other}}", "other")
	// Multiple patterns per branch.
	wantEval(t, in, "case bbb in {{a* b*} {set r ab} default {set r d}}", "ab")
	// Inline pairs without the braced list.
	wantEval(t, in, "case q in q {set r exact}", "exact")
	// No match, no default → empty.
	wantEval(t, in, "case zz in {a {set r 1}}", "")
	wantErr(t, in, "case s in {pat}", "extra case pattern")
}

func TestOpenChannelNamesAndCloseAll(t *testing.T) {
	in := New()
	dir := t.TempDir()
	f1 := evalOK(t, in, "open "+dir+"/a w")
	f2 := evalOK(t, in, "open "+dir+"/b w")
	evalOK(t, in, "puts "+f1+" data")
	in.CloseAllChannels()
	for _, f := range []string{f1, f2} {
		wantErr(t, in, "puts "+f+" more", "can not find channel")
	}
	// Buffered data was flushed by CloseAllChannels.
	data, _ := os.ReadFile(dir + "/a")
	if string(data) != "data\n" {
		t.Errorf("flushed content = %q", data)
	}
}

func TestGlobPwdCd(t *testing.T) {
	in := New()
	dir := t.TempDir()
	for _, f := range []string{"a.txt", "b.txt", "c.dat"} {
		if err := os.WriteFile(dir+"/"+f, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := evalOK(t, in, "glob "+dir+"/*.txt")
	if !strings.Contains(got, "a.txt") || !strings.Contains(got, "b.txt") || strings.Contains(got, "c.dat") {
		t.Errorf("glob = %q", got)
	}
	wantErr(t, in, "glob "+dir+"/*.nope", "no files matched")
	wantEval(t, in, "glob -nocomplain "+dir+"/*.nope", "")
	// pwd/cd round trip.
	orig := evalOK(t, in, "pwd")
	evalOK(t, in, "cd "+dir)
	here := evalOK(t, in, "pwd")
	if !strings.HasSuffix(here, strings.TrimPrefix(dir, "/private")) && here != dir {
		t.Errorf("pwd after cd = %q, want %q", here, dir)
	}
	evalOK(t, in, "cd "+orig)
	wantErr(t, in, "cd /no/such/dir", "couldn't change directory")
}
