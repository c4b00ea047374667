/**
 * @file
 * The TextView family: TextView, Button, EditText, CheckBox — the widgets
 * whose Table 1 migration policy is setText (plus checked state for
 * compound buttons).
 *
 * The paper's most common top-100 issue class is "State loss (text box)"
 * (Table 5); EditText here is the widget that reproduces it.
 */
#ifndef RCHDROID_VIEW_TEXT_VIEW_H
#define RCHDROID_VIEW_TEXT_VIEW_H

#include <string>

#include "view/view.h"

namespace rchdroid {

/**
 * Displays text to the user, mirroring android.widget.TextView.
 */
class TextView : public View
{
  public:
    explicit TextView(std::string id);

    const char *typeName() const override { return "TextView"; }

    const std::string &text() const { noteSharedRead(); return text_; }
    /** Set the displayed text; invalidates on change. */
    void setText(std::string text);

    /**
     * Set text resolved from a resource (used by the inflater). Such
     * text is configuration-derived, not user state: it is excluded
     * from snapshots and migration so a new instance shows the value
     * re-resolved under its own configuration (e.g. the new locale).
     * Any later programmatic setText() reclassifies the text as state.
     */
    void setTextFromResource(std::string text);
    bool isTextFromResource() const { return text_from_resource_; }

    double textSizeSp() const { return text_size_sp_; }
    void setTextSizeSp(double sp);

    void applyMigration(View &target) const override;
    std::size_t memoryFootprintBytes() const override;

  protected:
    void onSaveState(Bundle &state, bool full) const override;
    void onRestoreState(const Bundle &state) override;

  private:
    std::string text_;
    double text_size_sp_ = 14.0;
    bool text_from_resource_ = false;
};

/**
 * A clickable TextView, mirroring android.widget.Button.
 */
class Button : public TextView
{
  public:
    explicit Button(std::string id);

    const char *typeName() const override { return "Button"; }

    /** Install the click handler; the simulated app's logic lives here. */
    void setOnClickListener(std::function<void()> listener);

    /** Deliver a user tap (the bench's "touching the button" event). */
    void performClick();

    bool hasClickListener() const { return listener_ != nullptr; }

  private:
    std::function<void()> listener_;
};

/**
 * Editable text with cursor state, mirroring android.widget.EditText.
 */
class EditText : public TextView
{
  public:
    explicit EditText(std::string id);

    const char *typeName() const override { return "EditText"; }

    const std::string &hint() const { return hint_; }
    void setHint(std::string hint);

    int cursorPosition() const { return cursor_; }
    void setCursorPosition(int position);

    /** Append user-typed characters, moving the cursor. */
    void typeText(const std::string &typed);

    void applyMigration(View &target) const override;

  protected:
    void onSaveState(Bundle &state, bool full) const override;
    void onRestoreState(const Bundle &state) override;

  private:
    std::string hint_;
    int cursor_ = 0;
};

/**
 * A two-state button, mirroring android.widget.CheckBox
 * (CompoundButton). Reproduces the "check box setting is lost" issue of
 * DrWebAntiVirus (Table 3 #11).
 */
class CheckBox : public Button
{
  public:
    explicit CheckBox(std::string id);

    const char *typeName() const override { return "CheckBox"; }

    bool isChecked() const { noteSharedRead(); return checked_; }
    void setChecked(bool checked);
    void toggle() { setChecked(!checked_); }

    void applyMigration(View &target) const override;

  protected:
    void onSaveState(Bundle &state, bool full) const override;
    void onRestoreState(const Bundle &state) override;

  private:
    bool checked_ = false;
};

} // namespace rchdroid

#endif // RCHDROID_VIEW_TEXT_VIEW_H
